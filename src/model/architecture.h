/**
 * @file
 * Expert model architectures.
 *
 * The paper's CoE uses one ResNet101 classification expert per circuit
 * board component type plus shared YOLOv5m / YOLOv5l object-detection
 * experts (Section 5.1). Experts of the same architecture share their
 * compute complexity and size, so performance is profiled once per
 * architecture (Section 4.5); only the weights differ.
 */

#ifndef COSERVE_MODEL_ARCHITECTURE_H
#define COSERVE_MODEL_ARCHITECTURE_H

#include <cstdint>
#include <string>

namespace coserve {

/** Architecture families used in the paper's evaluation. */
enum class ArchId { ResNet101 = 0, YoloV5m = 1, YoloV5l = 2, Custom = 3 };

/** Number of built-in architectures (excluding Custom). */
inline constexpr int kNumBuiltinArchs = 3;

/** Number of ArchId values (the built-ins plus Custom): dense tables. */
inline constexpr int kNumArchIds = kNumBuiltinArchs + 1;

/** Static description of an expert architecture. */
struct ArchSpec
{
    ArchId id = ArchId::Custom;
    std::string name;
    /** Parameter count. */
    std::int64_t params = 0;
    /** Serialized fp32 weight bytes (what a load transfers). */
    std::int64_t weightBytes = 0;
    /** Forward-pass cost indicator (GFLOPs per image), documentation. */
    double gflopsPerImage = 0.0;
};

/** ResNet101: 44.5 M params (~170 MiB fp32). */
const ArchSpec &resnet101();

/** YOLOv5m: 21.2 M params (~81 MiB fp32). */
const ArchSpec &yolov5m();

/** YOLOv5l: 46.5 M params (~177 MiB fp32). */
const ArchSpec &yolov5l();

/** @return spec for a built-in ArchId; panics on Custom. */
const ArchSpec &archSpec(ArchId id);

} // namespace coserve

#endif // COSERVE_MODEL_ARCHITECTURE_H
