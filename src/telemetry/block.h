/**
 * @file
 * Delta-compressed cold blocks: the middle retention tier.
 *
 * When a span of raw samples ages out of a bounded TimeSeries' hot
 * ring it is *sealed* into a SealedBlock: timestamps are stored as
 * zigzag-varint delta-of-deltas and values as trailing-zero-shifted,
 * varint-encoded XORs against the previous value's bit pattern (the
 * Gorilla-style layout monitoring TSDBs use). Both transforms are lossless — decoding
 * reproduces the original samples bit for bit, NaN payloads included
 * — so queries that walk cold blocks via BlockCursor stay exactly
 * equal to the same queries on the uncompressed history. Regularly
 * ticked series compress extremely well: a constant tick interval
 * makes every delta-of-delta zero (1 byte), and slowly-moving doubles
 * share high mantissa/exponent bits so their XOR drops to few bytes.
 */

#ifndef ECOV_TELEMETRY_BLOCK_H
#define ECOV_TELEMETRY_BLOCK_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "telemetry/sample_store.h"
#include "util/units.h"

namespace ecov::ts {

/**
 * One sealed span of samples covering [start_cut_s, end_cut_s).
 *
 * The cut boundaries tile exactly: a block's end_cut_s is the next
 * block's start_cut_s (and, after the block is retired, the series'
 * exact-coverage boundary), so interval queries can hand off between
 * tiers without gaps or double counting. The first sample is stored
 * in the header; the payload encodes samples [1, count).
 */
struct SealedBlock
{
    TimeS start_cut_s = 0; ///< span start boundary (minute-aligned)
    TimeS end_cut_s = 0;   ///< span end boundary (exclusive, aligned)
    TimeS first_time_s = 0;
    TimeS last_time_s = 0;
    double first_value = 0.0;
    double last_value = 0.0; ///< step value carried past the block
    std::uint32_t count = 0;
    /** Exactly sized: capacity() == size(). */
    std::vector<std::uint8_t> payload;
};

/**
 * Seal the oldest `count` samples of `store` (1 <= count <= size(),
 * all within [start_cut_s, end_cut_s)) into a block, reading them in
 * place. Fatal on an empty span — the caller owns batching. Encodes
 * through a buffer reused per thread, so the only allocation is the
 * exactly sized payload.
 */
SealedBlock sealBlock(const SampleStore &store, std::size_t count,
                      TimeS start_cut_s, TimeS end_cut_s);

/**
 * Forward decoder over a sealed block. next() yields the samples in
 * append order, bit-identical to the sealed originals; fatal on a
 * corrupt payload (truncation or count mismatch can only mean memory
 * corruption — there is no untrusted input path to here).
 */
class BlockCursor
{
  public:
    explicit BlockCursor(const SealedBlock &block) : block_(&block) {}

    /** Decode the next sample; false when the block is exhausted. */
    bool next(Sample *out);

  private:
    const SealedBlock *block_;
    std::uint32_t emitted_ = 0;
    std::size_t pos_ = 0;       ///< payload byte offset
    TimeS time_ = 0;
    TimeS delta_ = 0;           ///< previous timestamp delta
    std::uint64_t value_bits_ = 0;
};

} // namespace ecov::ts

#endif // ECOV_TELEMETRY_BLOCK_H
