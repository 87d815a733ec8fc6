/**
 * @file
 * Logical-program workload: lowers a quantum circuit onto the island
 * mesh's communication model.
 *
 * The paper's Section-5 evaluation runs *programs* -- QCLA adders and
 * Toffoli networks inside Shor's algorithm -- over the teleportation
 * interconnect. This layer turns a circuit::QuantumCircuit into a
 * dependency DAG of logical gates with EC-window durations and
 * per-window transversal interactions:
 *
 *  - one- qubit gates, preparations and measurements: one EC window,
 *    tile-local (no interconnect traffic);
 *  - two-qubit gates (CNOT/CZ/Swap): one EC window, one transversal
 *    round of EPR pairs between the operand tiles (one pair per
 *    physical data ion -- 49 at level 2);
 *  - Toffoli: the fault-tolerant gadget of Section 5 -- 6 logical
 *    ancilla qubits, 15 EC windows of ancilla preparation plus 6 to
 *    finish, with `toffoliInteractionsPerWindow` interacting logical
 *    pairs in each window (ancilla-network pairs while preparing,
 *    operand-ancilla pairs while finishing).
 *
 * The co-simulator (network/cosim.h) executes this DAG as a loop over
 * EC windows: gate windows advance only when their EPR demands were
 * delivered, so the lowering here is where gate layers become
 * per-window EprDemand streams.
 */

#ifndef QLA_NETWORK_PROGRAM_WORKLOAD_H
#define QLA_NETWORK_PROGRAM_WORKLOAD_H

#include <cstdint>
#include <span>
#include <vector>

#include "apps/toffoli.h"
#include "circuit/circuit.h"

namespace qla::network {

/** Lowering parameters for logical programs. */
struct ProgramConfig
{
    /** Logical-qubit tiles per mesh island in x (paper: an island every
     *  third logical qubit for the 100-cell separation); >= 1. */
    int tilesPerIslandX = 3;
    /** EPR pairs per transversal logical interaction (49 ions at L2). */
    std::uint64_t pairsPerInteraction = 49;
    /** Interacting logical pairs per window of a running Toffoli; >= 0. */
    int toffoliInteractionsPerWindow = 2;
    /** Fault-tolerant Toffoli gadget shape (15 + 6 windows, 6 ancilla). */
    apps::ToffoliGadget toffoli;
};

/** A member slot of a logical gate: operand qubit or gadget ancilla. */
struct GateMember
{
    bool isAncilla = false;
    /** Operand position (into LogicalGate::qubits) or ancilla slot. */
    std::size_t index = 0;

    bool operator==(const GateMember &o) const
    {
        return isAncilla == o.isAncilla && index == o.index;
    }
};

/** One transversal logical interaction: @p mover teleports to @p target
 *  (and drifts there when the optimization is on). */
struct MemberInteraction
{
    GateMember mover;
    GateMember target;
};

/** One logical gate lowered onto the window clock. */
struct LogicalGate
{
    std::size_t id = 0;
    circuit::OpKind kind = circuit::OpKind::X;
    /** Circuit operand qubits. */
    std::vector<std::size_t> qubits;
    /** EC windows the gate occupies on its operands. */
    int durationWindows = 1;
    /** Transient logical-ancilla tiles the gate needs (6 for Toffoli). */
    int ancillaCount = 0;
    /** Gates that cannot start before this one completes. */
    std::vector<std::size_t> successors;
    /** Number of distinct predecessor gates. */
    int dependencyCount = 0;
};

/**
 * A circuit lowered to the logical-gate DAG.
 */
class ProgramWorkload
{
  public:
    explicit ProgramWorkload(circuit::QuantumCircuit circuit,
                             ProgramConfig config = {});

    const circuit::QuantumCircuit &circuit() const { return circuit_; }
    const ProgramConfig &config() const { return config_; }
    const std::vector<LogicalGate> &gates() const { return gates_; }

    /**
     * Interacting member pairs for window @p window (0-based) of gate
     * @p gate. Deterministic: Toffoli windows cycle through fixed
     * ancilla-network / operand-ancilla pair schedules, lowered once
     * into a window-major table that every Toffoli gate shares. The
     * span stays valid for the workload's lifetime.
     */
    std::span<const MemberInteraction> interactionsForWindow(
        std::size_t gate, int window) const;

    /**
     * Ideal makespan in EC windows: the dependency-DAG critical path
     * with every gate charged its durationWindows. The co-simulated
     * makespan equals this exactly when communication fully overlaps
     * with error correction (the paper's bandwidth-2 conclusion).
     */
    std::uint64_t criticalPathWindows() const;

    /** Critical-path decomposition (windows plus the Toffoli gates on
     *  the longest chain -- the unit the Table-2 model charges 21 EC
     *  steps each). */
    struct CriticalPath
    {
        std::uint64_t windows = 0;
        std::uint64_t toffolis = 0;
    };
    CriticalPath criticalPath() const;

    /** Peak concurrent gadget-ancilla tiles over the ASAP layering
     *  (mesh-sizing heuristic). */
    std::size_t peakAncillaTiles() const;

    /** Total transversal interactions over all gates and windows. */
    std::uint64_t totalInteractions() const;

  private:
    circuit::QuantumCircuit circuit_;
    ProgramConfig config_;
    std::vector<LogicalGate> gates_;
    /** Toffoli interactions, window-major: window w's are entries
     *  [w * toffoliInteractionsPerWindow, (w + 1) * ...). */
    std::vector<MemberInteraction> toffoli_table_;
};

/** Island-mesh extent. */
struct MeshExtent
{
    int width = 0;
    int height = 0;
};

/**
 * Island-mesh size fitting @p program: data tiles plus peak gadget
 * ancilla at @p fill occupancy (free tiles are what lets qubits drift
 * and ancilla blocks allocate near their operands), squarish in island
 * coordinates, at least 2x2 islands.
 */
MeshExtent meshForProgram(const ProgramWorkload &program,
                          double fill = 0.6);

} // namespace qla::network

#endif // QLA_NETWORK_PROGRAM_WORKLOAD_H
