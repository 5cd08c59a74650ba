#pragma once
// wa::dist::detail::payload_digest -- the end-to-end integrity digest
// ShmTransport computes on both sides of every delivery, and
// land_verified, the receiver's check-then-write.
//
// Four independent 64-bit lanes run over the payload's IEEE-754 bit
// patterns: word i feeds lane i % 4, and the words % 4 tail words feed
// lane 0.  Each step is h = (h ^ w) * K for an odd K, then the xorshift
// h ^= h >> 29 so high product bits reach the low bits.  The four lane
// states and then the word count are folded, each as the w of the same
// step, into a seeded accumulator.  Every step is a bijection in h (for
// fixed w) and in w (for fixed h), so a corruption confined to any one
// word always changes the digest -- the guarantee byte-serial FNV-1a
// gave, at a fraction of its cost: FNV-1a is one multiply per byte in
// a single dependency chain, this is one multiply per word in four
// (about 0.7 vs 11 ns/word on a Xeon core).  tests/dist_transport_test
// pins the guarantee and checks every 1- and 2-bit flip, word swap and
// one-word truncation of an 18-word buffer.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace wa::dist::detail {

/// Digest of @p words doubles at @p data (bit patterns, not values:
/// +0.0 and -0.0, or two NaN payloads, digest differently).
std::uint64_t payload_digest(const double* data, std::size_t words);

/// Land a delivery of @p words doubles at @p data in @p arena, but
/// only if @p data still digests to @p digest: overwrite the arena's
/// first @p words (growing it to fit), or with @p combine add them
/// elementwise.  Returns false, with @p arena's bytes and size
/// untouched, on a mismatch.
bool land_verified(std::vector<double>& arena, const double* data,
                   std::size_t words, std::uint64_t digest, bool combine);

}  // namespace wa::dist::detail
