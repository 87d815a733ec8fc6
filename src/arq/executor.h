/**
 * @file
 * Circuit execution on the quantum back-ends.
 *
 * Runs a QuantumCircuit on any quantum::SimulationBackend: the stabilizer
 * tableau (Clifford only, polynomial cost -- ARQ's production engine),
 * the dense state vector (any gate, exponential cost -- the validation
 * engine), or the Pauli frame (error propagation; its measurement record
 * holds flips relative to the ideal outcome, so circuits with classical
 * conditioning are rejected on it). There is exactly one
 * op-interpretation loop, executeOnBackend; the per-engine entry points
 * are thin wrappers over it. Measurement outcomes are recorded in program
 * order and drive classically conditioned fix-up ops.
 */

#ifndef QLA_ARQ_EXECUTOR_H
#define QLA_ARQ_EXECUTOR_H

#include <vector>

#include "circuit/circuit.h"
#include "common/rng.h"
#include "quantum/backend.h"
#include "quantum/batched_frame.h"
#include "quantum/statevector.h"
#include "quantum/tableau.h"

namespace qla::arq {

/** Execution record: measurement outcomes in program order. */
struct ExecutionResult
{
    std::vector<bool> measurements;
};

/**
 * Execute a circuit on any simulation backend. Non-Clifford ops
 * (T / Toffoli) are fatal on backends that do not support them: those
 * are cost-modeled by the QLA, not state-simulated (paper Section 1,
 * contribution 3).
 */
ExecutionResult executeOnBackend(const circuit::QuantumCircuit &circuit,
                                 quantum::SimulationBackend &backend,
                                 Rng &rng);

/** Execute a Clifford circuit on a stabilizer tableau. */
ExecutionResult executeOnTableau(const circuit::QuantumCircuit &circuit,
                                 quantum::StabilizerTableau &state,
                                 Rng &rng);

/** Execute any circuit on the dense simulator (<= 24 qubits). */
ExecutionResult executeOnStateVector(const circuit::QuantumCircuit &circuit,
                                     quantum::StateVector &state,
                                     Rng &rng);

/** Batched execution record: one flip word per measurement, lanes across
 *  each word (bit l = shot lane l). */
struct BatchedExecutionResult
{
    std::vector<std::uint64_t> measurementFlips;
};

/**
 * Execute a Clifford circuit on the batched frame engine for the shots in
 * @p lanes, 64 at a time. The frame picture has no classical outcomes,
 * only flips relative to the ideal ones, so classically conditioned ops
 * are rejected just as on the scalar PauliFrame; Pauli gates commute
 * with the frame and dispatch to nothing.
 */
BatchedExecutionResult executeOnBatchedFrame(
    const circuit::QuantumCircuit &circuit,
    quantum::BatchedPauliFrame &frame, std::uint64_t lanes);

} // namespace qla::arq

#endif // QLA_ARQ_EXECUTOR_H
