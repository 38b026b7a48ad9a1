/**
 * @file
 * Machine-speed reference for the timing metrics.
 *
 * Host timings on a machine whose cores are shared with other tenants
 * drift by tens of percent over minutes, far more than the changes
 * the benchmark has to resolve. Before every program run the
 * benchmark times a small fixed kernel of its own (a discrete-event
 * loop: binary heap, std::function dispatch, integer mixing, close to
 * the simulator's instruction mix but independent of the program).
 * The median kernel time of a measurement, against the kernel's
 * nominal time, gives the machine's speed during that measurement;
 * timing metrics are reported at nominal speed:
 *
 *     reported = measured * kReferenceNominalSeconds / median(kernel)
 *
 * The raw measured values are printed next to them.
 */

#ifndef PERFBENCH_REFERENCE_HH
#define PERFBENCH_REFERENCE_HH

#include <vector>

namespace pb {

/** The kernel's time on an uncontended core, seconds (measured on a
 *  4-vCPU Xeon Sapphire Rapids KVM guest); it only sets the scale. */
inline constexpr double kReferenceNominalSeconds = 2.5e-3;

/** Time the kernel once and record the sample. */
void sampleReference();

/** Machine slowdown against nominal: median sample / nominal (1 when
 *  no sample was taken). */
double referenceSlowdown();

} // namespace pb

#endif // PERFBENCH_REFERENCE_HH
