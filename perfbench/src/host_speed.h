/**
 * @file
 * Host-speed reference kernel.
 *
 * On a shared machine the host's speed drifts by 20-30% over minutes,
 * for every phase of the benchmark at once (thread CPU time tracks wall
 * time, so the loss is not accounted steal). The end-to-end timings
 * are therefore reported at a reference host speed: each run times a
 * fixed kernel of benchmark-owned code between its passes, and a timing
 * is scaled by (reference kernel time / this run's mean kernel time).
 * The kernel churns a std::map (allocation, pointer chasing, branches);
 * over a 200 s probe on the 4-core Xeon VM the benchmark was tuned on,
 * the co-sim, the Monte-Carlo sweep and served requests each slowed
 * with it at an elasticity of 1.1-1.2, where bit-parallel or pure
 * search kernels tracked them at 0.6 or 2.
 *
 * The kernel uses nothing from src/, so no change to the library moves
 * it; the raw timings and the kernel time are printed beside the
 * scaled ones.
 */

#ifndef PERFBENCH_HOST_SPEED_H
#define PERFBENCH_HOST_SPEED_H

#include <cstdint>

namespace perfbench {

/** Mean kernel time of the reference host, in microseconds. */
inline constexpr double kReferenceKernelUs = 3700.0;

/** One run of the reference kernel; returns a checksum so the work
 *  cannot be optimized away. */
std::uint64_t hostSpeedKernel();

} // namespace perfbench

#endif // PERFBENCH_HOST_SPEED_H
