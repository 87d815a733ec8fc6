#include "network/program_workload.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "network/scheduler.h"

namespace qla::network {

namespace {

/** Windows a gate of @p kind occupies. */
int
gateDuration(circuit::OpKind kind, const ProgramConfig &config)
{
    if (kind == circuit::OpKind::Toffoli)
        return static_cast<int>(config.toffoli.prepEccSteps
                                + config.toffoli.finishEccSteps);
    return 1;
}

constexpr GateMember kOp0{false, 0};
constexpr GateMember kOp1{false, 1};
constexpr GateMember kOp2{false, 2};

constexpr GateMember
anc(std::size_t slot)
{
    return {true, slot};
}

/** Two-qubit gate rounds: CNOT/CZ read the first entry (the control
 *  teleports to the target, "logical qubit A is teleported to B"),
 *  Swap both (both directions move: two transversal rounds). */
constexpr MemberInteraction kTwoQubit[2] = {{kOp0, kOp1}, {kOp1, kOp0}};

// Fixed cyclic Toffoli schedules keep the lowering deterministic. While
// preparing (the first prepEccSteps windows) the 6-qubit ancilla network
// interacts internally; finishing couples each operand to its ancilla
// pair.
constexpr MemberInteraction kToffoliPrep[6] = {
    {anc(0), anc(1)}, {anc(2), anc(3)}, {anc(4), anc(5)},
    {anc(1), anc(2)}, {anc(3), anc(4)}, {anc(5), anc(0)},
};
constexpr MemberInteraction kToffoliFinish[6] = {
    {kOp0, anc(0)}, {kOp1, anc(2)}, {kOp2, anc(4)},
    {anc(1), kOp0}, {anc(3), kOp1}, {anc(5), kOp2},
};

} // namespace

ProgramWorkload::ProgramWorkload(circuit::QuantumCircuit circuit,
                                 ProgramConfig config)
    : circuit_(std::move(circuit)), config_(config)
{
    qla_assert(config_.toffoli.ancillaQubits == 6,
               "Toffoli gadget shape changed; update the interaction "
               "schedules");
    qla_assert(config_.tilesPerIslandX >= 1,
               "tilesPerIslandX must be >= 1, got ",
               config_.tilesPerIslandX);
    const int count = kToffoliInteractionsPerWindow;
    const int prep = static_cast<int>(config_.toffoli.prepEccSteps);
    for (int w = 0; w < gateDuration(circuit::OpKind::Toffoli, config_); ++w) {
        const MemberInteraction *cycle =
            w < prep ? kToffoliPrep : kToffoliFinish;
        for (int i = 0; i < count; ++i)
            toffoli_table_.push_back(cycle[(w * count + i) % 6]);
    }
    const auto &ops = circuit_.ops();
    gates_.reserve(ops.size());
    // Last gate that touched each qubit (program order): a gate depends
    // on the previous writer of every operand.
    std::vector<std::size_t> last(circuit_.numQubits(), ~std::size_t{0});
    for (std::size_t i = 0; i < ops.size(); ++i) {
        qla_assert(ops[i].condition < 0,
                   "classically conditioned ops are not lowered to the "
                   "mesh workload (teleportation fix-ups are tile-local "
                   "Paulis)");
        LogicalGate gate;
        gate.id = i;
        gate.kind = ops[i].kind;
        gate.qubits = ops[i].qubits();
        gate.durationWindows = gateDuration(ops[i].kind, config_);
        gate.ancillaCount = ops[i].kind == circuit::OpKind::Toffoli
            ? static_cast<int>(config_.toffoli.ancillaQubits)
            : 0;
        std::vector<std::size_t> deps;
        for (const std::size_t q : gate.qubits)
            if (last[q] != ~std::size_t{0})
                deps.push_back(last[q]);
        std::sort(deps.begin(), deps.end());
        deps.erase(std::unique(deps.begin(), deps.end()), deps.end());
        gate.dependencyCount = static_cast<int>(deps.size());
        for (const std::size_t d : deps)
            gates_[d].successors.push_back(i);
        for (const std::size_t q : gate.qubits)
            last[q] = i;
        gates_.push_back(std::move(gate));
    }
}

std::span<const MemberInteraction>
ProgramWorkload::interactionsForWindow(std::size_t gate, int window) const
{
    qla_assert(gate < gates_.size(), "gate id out of range");
    const LogicalGate &g = gates_[gate];
    qla_assert(window >= 0 && window < g.durationWindows,
               "window out of range for gate");

    switch (g.kind) {
      case circuit::OpKind::Cnot:
      case circuit::OpKind::Cz:
        return {kTwoQubit, 1};
      case circuit::OpKind::Swap:
        return kTwoQubit;
      case circuit::OpKind::Toffoli: {
        constexpr auto count =
            static_cast<std::size_t>(kToffoliInteractionsPerWindow);
        return std::span<const MemberInteraction>(toffoli_table_)
            .subspan(static_cast<std::size_t>(window) * count, count);
      }
      default:
        return {}; // tile-local: no interconnect traffic
    }
}

std::uint64_t
ProgramWorkload::criticalPathWindows() const
{
    return criticalPath().windows;
}

ProgramWorkload::CriticalPath
ProgramWorkload::criticalPath() const
{
    // finish[i] accumulates the latest predecessor finish until gate i
    // is reached, then becomes gate i's own finish time; program order
    // is a topological order (dependencies always point backwards).
    // tofs[i] carries the Toffoli count along the corresponding path.
    std::vector<std::uint64_t> finish(gates_.size(), 0);
    std::vector<std::uint64_t> tofs(gates_.size(), 0);
    CriticalPath critical;
    for (std::size_t i = 0; i < gates_.size(); ++i) {
        const std::uint64_t f = finish[i]
            + static_cast<std::uint64_t>(gates_[i].durationWindows);
        const std::uint64_t t = tofs[i]
            + (gates_[i].kind == circuit::OpKind::Toffoli ? 1 : 0);
        finish[i] = f;
        tofs[i] = t;
        if (f > critical.windows
            || (f == critical.windows && t > critical.toffolis)) {
            critical.windows = f;
            critical.toffolis = t;
        }
        for (const std::size_t s : gates_[i].successors) {
            if (f > finish[s] || (f == finish[s] && t > tofs[s])) {
                finish[s] = f;
                tofs[s] = t;
            }
        }
    }
    return critical;
}

std::size_t
ProgramWorkload::peakAncillaTiles() const
{
    const auto layers = circuit_.asapLayers();
    std::vector<std::size_t> per_layer;
    for (std::size_t i = 0; i < gates_.size(); ++i) {
        if (gates_[i].ancillaCount == 0)
            continue;
        if (layers[i] >= per_layer.size())
            per_layer.resize(layers[i] + 1, 0);
        per_layer[layers[i]] +=
            static_cast<std::size_t>(gates_[i].ancillaCount);
    }
    std::size_t peak = 0;
    for (const std::size_t v : per_layer)
        peak = std::max(peak, v);
    return peak;
}

std::uint64_t
ProgramWorkload::totalInteractions() const
{
    std::uint64_t total = 0;
    for (const auto &g : gates_)
        for (int w = 0; w < g.durationWindows; ++w)
            total += interactionsForWindow(g.id, w).size();
    return total;
}

MeshExtent
meshForProgram(const ProgramWorkload &program, double fill)
{
    qla_assert(fill > 0.0 && fill <= 1.0, "fill fraction out of range");
    const ProgramConfig &config = program.config();
    const double tiles_needed = static_cast<double>(
        program.circuit().numQubits() + program.peakAncillaTiles());
    const double tiles_total = tiles_needed / fill;
    const double per_island = static_cast<double>(config.tilesPerIslandX);
    MeshExtent extent;
    extent.height = std::max(
        2, static_cast<int>(std::ceil(std::sqrt(tiles_total
                                                / per_island))));
    extent.width = std::max(
        2, static_cast<int>(std::ceil(
               tiles_total / (per_island * extent.height))));
    return extent;
}

} // namespace qla::network
