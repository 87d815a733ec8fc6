#include "arq/executor.h"

#include "common/logging.h"

namespace qla::arq {

ExecutionResult
executeOnBackend(const circuit::QuantumCircuit &circuit,
                 quantum::SimulationBackend &backend, Rng &rng)
{
    using circuit::OpKind;
    qla_assert(backend.numQubits() >= circuit.numQubits(),
               "'", backend.backendName(),
               "' register too small for circuit");
    if (!backend.supportsNonClifford() && !circuit.isClifford()) {
        qla_fatal("circuit '", circuit.name(),
                  "' contains non-Clifford ops; the '",
                  backend.backendName(),
                  "' backend only simulates Clifford circuits (the QLA "
                  "cost-models T/Toffoli instead)");
    }
    ExecutionResult result;
    for (const auto &op : circuit.ops()) {
        if (op.condition >= 0) {
            qla_assert(!backend.reportsOutcomeFlips(),
                       "classically conditioned ops are meaningless on "
                       "the '", backend.backendName(),
                       "' backend: its measurement record holds flips, "
                       "not outcomes");
            qla_assert(static_cast<std::size_t>(op.condition)
                           < result.measurements.size(),
                       "conditioned on a not-yet-performed measurement");
            if (!result.measurements[op.condition])
                continue;
        }
        switch (op.kind) {
          case OpKind::PrepZ:
            backend.resetToZero(op.q0, rng);
            break;
          case OpKind::PrepX:
            backend.resetToZero(op.q0, rng);
            backend.h(op.q0);
            break;
          case OpKind::H:
            backend.h(op.q0);
            break;
          case OpKind::S:
            backend.s(op.q0);
            break;
          case OpKind::Sdg:
            backend.sdg(op.q0);
            break;
          case OpKind::T:
            backend.t(op.q0);
            break;
          case OpKind::Tdg:
            backend.tdg(op.q0);
            break;
          case OpKind::X:
            backend.x(op.q0);
            break;
          case OpKind::Y:
            backend.y(op.q0);
            break;
          case OpKind::Z:
            backend.z(op.q0);
            break;
          case OpKind::Cnot:
            backend.cnot(op.q0, op.q1);
            break;
          case OpKind::Cz:
            backend.cz(op.q0, op.q1);
            break;
          case OpKind::Swap:
            backend.swap(op.q0, op.q1);
            break;
          case OpKind::Toffoli:
            backend.toffoli(op.q0, op.q1, op.q2);
            break;
          case OpKind::MeasureZ:
            result.measurements.push_back(backend.measureZ(op.q0, rng));
            break;
          case OpKind::MeasureX:
            result.measurements.push_back(backend.measureX(op.q0, rng));
            break;
        }
    }
    return result;
}

ExecutionResult
executeOnTableau(const circuit::QuantumCircuit &circuit,
                 quantum::StabilizerTableau &state, Rng &rng)
{
    return executeOnBackend(circuit, state, rng);
}

ExecutionResult
executeOnStateVector(const circuit::QuantumCircuit &circuit,
                     quantum::StateVector &state, Rng &rng)
{
    return executeOnBackend(circuit, state, rng);
}

BatchedExecutionResult
executeOnBatchedFrame(const circuit::QuantumCircuit &circuit,
                      quantum::BatchedPauliFrame &frame,
                      std::uint64_t lanes)
{
    using circuit::OpKind;
    qla_assert(frame.numQubits() >= circuit.numQubits(),
               "'", frame.backendName(),
               "' register too small for circuit");
    qla_assert(circuit.isClifford(),
               "circuit '", circuit.name(),
               "' contains non-Clifford ops; the '", frame.backendName(),
               "' backend only propagates Clifford frames");
    BatchedExecutionResult result;
    for (const auto &op : circuit.ops()) {
        qla_assert(op.condition < 0,
                   "classically conditioned ops are meaningless on the '",
                   frame.backendName(),
                   "' backend: its measurement record holds flips, not "
                   "outcomes");
        switch (op.kind) {
          case OpKind::PrepZ:
            frame.resetQubit(op.q0, lanes);
            break;
          case OpKind::PrepX:
            frame.resetQubit(op.q0, lanes);
            frame.h(op.q0, lanes);
            break;
          case OpKind::H:
            frame.h(op.q0, lanes);
            break;
          case OpKind::S:
          case OpKind::Sdg: // S and S^dagger conjugate the frame alike
            frame.s(op.q0, lanes);
            break;
          case OpKind::X:
          case OpKind::Y:
          case OpKind::Z:
            break; // Paulis commute with the frame up to phase
          case OpKind::Cnot:
            frame.cnot(op.q0, op.q1, lanes);
            break;
          case OpKind::Cz:
            frame.cz(op.q0, op.q1, lanes);
            break;
          case OpKind::Swap:
            frame.swap(op.q0, op.q1, lanes);
            break;
          case OpKind::MeasureZ:
            result.measurementFlips.push_back(
                frame.measureZFlip(op.q0, lanes));
            break;
          case OpKind::MeasureX:
            result.measurementFlips.push_back(
                frame.measureXFlip(op.q0, lanes));
            break;
          default:
            qla_fatal("non-Clifford op in Clifford circuit");
        }
    }
    return result;
}

} // namespace qla::arq
