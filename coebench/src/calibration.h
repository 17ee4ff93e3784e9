/**
 * @file
 * Reference kernel that calibrates host times on a shared machine.
 *
 * On a shared host the speed a process gets drifts by tens of percent
 * over tens of seconds (other tenants' load on the same cores, caches
 * and memory). The benchmark therefore times a fixed reference kernel
 * back to back with every serve call and every set-up, and reports
 * host times scaled by kReferenceKernelSeconds / (kernel time at that
 * moment): the time the work would have taken while the kernel ran at
 * its reference speed. The kernel lives in the benchmark, not in the
 * program under test, so a change to the program cannot move it.
 * Slowdowns that hit the program and the kernel differently are not
 * cancelled; the raw wall times are reported next to the scaled ones.
 */

#ifndef COEBENCH_CALIBRATION_H
#define COEBENCH_CALIBRATION_H

namespace coebench {

/**
 * Duration of the reference kernel at the reference speed, about its
 * typical time on one core of a 4-core Intel Xeon (2.0 GHz) VM. It only
 * fixes the scale of the reported host times.
 */
constexpr double kReferenceKernelSeconds = 0.0025;

/** Run the reference kernel once; @return its wall time, seconds. */
double referenceKernelSeconds();

} // namespace coebench

#endif // COEBENCH_CALIBRATION_H
