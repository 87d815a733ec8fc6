/**
 * @file
 * Row-level recorders for the Figure-5 tile schedule.
 *
 * The row-level segments (a verified-preparation round: encode a row,
 * encode its verification row, interact and read out; a verification
 * pair; a syndrome extraction round; the level-2 encoding network) are
 * recorded once per tile site by BatchedLogicalQubitExperiment's
 * recording. Each is parameterized only by its row base indices, so
 * every site's trace is the same operation sequence at its own rows.
 */

#ifndef QLA_ARQ_TILE_SCHEDULE_H
#define QLA_ARQ_TILE_SCHEDULE_H

#include <cstddef>

#include "arq/frame_trace.h"
#include "arq/monte_carlo.h"
#include "ecc/css_code.h"

namespace qla::arq {

/**
 * Records the row-level segments of the tile schedule; rows are
 * contiguous runs of blockLength() qubits starting at a base index.
 */
class TileRowRecorder
{
  public:
    TileRowRecorder(const ecc::CssCode &code, const NoiseParameters &noise,
                    const LayoutDistances &layout)
        : code_(code), noise_(noise), layout_(layout)
    {
    }

    /** Depolarizing probability of a cells/turns shuttle (with split). */
    double moveProbability(Cells cells, int turns) const
    {
        const double cell_equivalents = static_cast<double>(cells)
            + noise_.splitCellEquivalent
            + noise_.turnCellEquivalent * turns;
        return noise_.movementErrorPerCell * cell_equivalents;
    }

    /** Inter-block shuttle probability: movement noise plus the
     *  residual EPR infidelity of the interconnect channel it rides
     *  (PR 7; same arithmetic as the scalar moveIonInterBlock). */
    double interBlockMoveProbability() const
    {
        return moveProbability(layout_.interBlockCells,
                               layout_.interBlockTurns)
            + noise_.eprResidualError;
    }

    /** Noisy |0>_L (or |+>_L) encoder into the row at @p q0. */
    void encodeRow(FrameTraceBuilder &tb, std::size_t q0, bool plus) const;

    /**
     * Verification round of the row at @p q0 against the (already
     * encoded) verification row at @p verify_q0: copy the dangerous
     * error type, read the verification row out.
     */
    void verifyRound(FrameTraceBuilder &tb, std::size_t q0,
                     std::size_t verify_q0, bool plus) const;

    /**
     * One verified-preparation attempt, fused into a single segment:
     * encode the row, encode the verification row, verification round
     * (the body of the prepVerified retry loop).
     */
    void prepRound(FrameTraceBuilder &tb, std::size_t q0,
                   std::size_t verify_q0, bool plus) const;

    /**
     * The level-2 verification segment of one already-prepared row:
     * encode the verification row at @p verify_q0, then the
     * verification round against the row at @p q0.
     */
    void verifyPair(FrameTraceBuilder &tb, std::size_t q0,
                    std::size_t verify_q0, bool plus) const;

    /**
     * One syndrome-extraction round: transversal CNOT between the data
     * row at @p data_q0 and the (already prepared) ancilla row at
     * @p anc_q0 with the ancilla ions shuttling the inter-block
     * distance, followed by the ancilla readout. X-type detection when
     * @p detect_x.
     */
    void extractRound(FrameTraceBuilder &tb, std::size_t data_q0,
                      std::size_t anc_q0, bool detect_x) const;

    /**
     * The level-2 encoding network over one conglomeration's data rows:
     * the zero-encoder schedule applied transversally across rows, row
     * of group g based at @p q0 + g * @p group_stride.
     */
    void l2Network(FrameTraceBuilder &tb, std::size_t q0,
                   std::size_t group_stride, bool plus) const;

  private:
    const ecc::CssCode &code_;
    const NoiseParameters &noise_;
    const LayoutDistances &layout_;
};

} // namespace qla::arq

#endif // QLA_ARQ_TILE_SCHEDULE_H
