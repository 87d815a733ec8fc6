/**
 * @file
 * Unified simulation-backend interface for the quantum engines.
 *
 * The QLA toolchain simulates circuits on three engines with very
 * different cost/fidelity trade-offs: the stabilizer tableau (Clifford
 * only, polynomial -- ARQ's production engine), the dense state vector
 * (universal, exponential -- the validation engine), and the Pauli frame
 * (Clifford error propagation, O(1) per gate -- the Monte-Carlo engine).
 * SimulationBackend is the one dispatch surface they all share: gate
 * application, measurement, register reset, and state snapshotting.
 * Circuit interpretation (arq::executeOnBackend) is written once against
 * this interface instead of once per engine.
 */

#ifndef QLA_QUANTUM_BACKEND_H
#define QLA_QUANTUM_BACKEND_H

#include <cstddef>
#include <memory>

#include "common/rng.h"

namespace qla::quantum {

/**
 * Abstract n-qubit simulation engine.
 *
 * Gate and measurement semantics follow the standard circuit model;
 * backends with non-standard readout conventions (the Pauli frame, whose
 * measurements report flips relative to the ideal outcome) document the
 * difference on their override.
 */
class SimulationBackend
{
  public:
    virtual ~SimulationBackend() = default;

    /** Short engine name, e.g. "stabilizer", for diagnostics. */
    virtual const char *backendName() const = 0;

    virtual std::size_t numQubits() const = 0;

    /** Reset the whole register to the fiducial |0...0> state. */
    virtual void reset() = 0;

    //
    // Clifford gates: every backend implements these.
    //

    virtual void h(std::size_t q) = 0;
    virtual void s(std::size_t q) = 0;
    /** Inverse phase gate; default composes S^3. */
    virtual void sdg(std::size_t q);
    virtual void x(std::size_t q) = 0;
    virtual void y(std::size_t q) = 0;
    virtual void z(std::size_t q) = 0;
    virtual void cnot(std::size_t control, std::size_t target) = 0;
    virtual void cz(std::size_t a, std::size_t b) = 0;
    virtual void swap(std::size_t a, std::size_t b) = 0;

    //
    // Non-Clifford gates: fatal unless the backend supports them (the
    // QLA cost-models T and Toffoli rather than simulating them on the
    // stabilizer engines; see paper Section 1, contribution 3).
    //

    virtual bool supportsNonClifford() const { return false; }
    virtual void t(std::size_t q);
    virtual void tdg(std::size_t q);
    virtual void toffoli(std::size_t c1, std::size_t c2,
                         std::size_t target);

    //
    // Measurement and per-qubit reset.
    //

    /** Measure qubit @p q in the Z basis, collapsing the state. */
    virtual bool measureZ(std::size_t q, Rng &rng) = 0;

    /** X-basis measurement; default is the H-conjugated Z measurement. */
    virtual bool measureX(std::size_t q, Rng &rng);

    /**
     * True when measureZ/measureX return flips relative to the ideal
     * outcome instead of outcomes (the Pauli frame). Classical control
     * flow keyed on measurement results is meaningless on such a
     * backend, and the executor rejects it.
     */
    virtual bool reportsOutcomeFlips() const { return false; }

    /** Reset qubit @p q to |0>; default measures and flips if needed. */
    virtual void resetToZero(std::size_t q, Rng &rng);

    /**
     * Deep copy of the engine state, e.g. for Monte-Carlo forking or
     * checkpoint/rollback around speculative execution.
     */
    virtual std::unique_ptr<SimulationBackend> snapshot() const = 0;
};

} // namespace qla::quantum

#endif // QLA_QUANTUM_BACKEND_H
