//===- workloads/Workloads.h - Paper evaluation workloads -------*- C++ -*-===//
//
// Part of the Thistle reproduction (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The evaluation inputs of the paper: the conv2D configurations of the
/// Yolo-9000 and ResNet-18 pipelines (Table II; batch size 1, square
/// images and kernels, stride 2 on the layers Table II marks with *) and
/// the Eyeriss baseline architecture (168 PEs, 512 registers per PE,
/// 128 KB shared SRAM in 16-bit words, section V).
///
//===----------------------------------------------------------------------===//

#ifndef THISTLE_WORKLOADS_WORKLOADS_H
#define THISTLE_WORKLOADS_WORKLOADS_H

#include "ir/Builders.h"
#include "model/TechModel.h"

#include <string_view>
#include <vector>

namespace thistle {

/// The 12 conv stages of ResNet-18 (Table II, right).
std::vector<ConvLayer> resnet18Layers();

/// The 11 conv stages of Yolo-9000 (Table II, left).
std::vector<ConvLayer> yolo9000Layers();

/// Both pipelines concatenated (ResNet-18 first), as the paper's
/// single-architecture experiments consider all stages of both.
std::vector<ConvLayer> allPaperLayers();

/// The full 21-conv ResNet-18 pipeline for the network driver: Table
/// II's 12 distinct shapes expanded with their block-repeat
/// multiplicities (the 3x3 body convs recur across the two basic blocks
/// of each stage). Repeated instances are suffixed ".k" but share the
/// shape, so optimizeNetwork solves each distinct shape once.
std::vector<ConvLayer> resnet18NetworkLayers();

/// The full 19-conv Yolo-9000 backbone (darknet-19) for the network
/// driver: Table II's 11 distinct shapes with the stacked 3x3/1x1
/// stages repeated as in the network.
std::vector<ConvLayer> yolo9000NetworkLayers();

/// Both expanded pipelines concatenated (ResNet-18 first).
std::vector<ConvLayer> allNetworkLayers();

/// The 30 distinct conv shapes of MobileNetV2 (width 1.0, 224x224 input;
/// docs/WORKLOADS.md): the dense stem, the depthwise 3x3 stages
/// (Groups == C) and the pointwise 1x1 expand/project stages of the
/// inverted-residual bottlenecks, plus the final 1x1 conv.
std::vector<ConvLayer> mobilenetV2Layers();

/// The full 52-conv MobileNetV2 pipeline for the network driver: the 30
/// distinct shapes expanded with their bottleneck-repeat multiplicities.
std::vector<ConvLayer> mobilenetV2NetworkLayers();

/// DCGAN-style training layers (docs/WORKLOADS.md): the four transposed
/// convs of the 64x64 generator (full-output convention) and two
/// dilation-2 stages modeling the strided discriminator convs' backward
/// pass, which EcoFlow shows maps onto dilated convolutions.
std::vector<ConvLayer> dcganLayers();

/// The DCGAN table as a network pipeline (each stage once).
std::vector<ConvLayer> dcganNetworkLayers();

/// The network pipelines by the name `--network` and the serve
/// protocol's "network" workload take: resnet18, yolo9000, mobilenetv2,
/// dcgan and all (resnet18 + yolo9000). False for an unknown name.
bool networkLayersByName(std::string_view Name, std::vector<ConvLayer> &Out);

/// The Eyeriss architectural parameters used as the paper's baseline.
ArchConfig eyerissArch();

/// Eyeriss silicon area under the Eq. 5 model with \p Tech — the area
/// budget of every co-design experiment.
double eyerissAreaUm2(const TechParams &Tech);

} // namespace thistle

#endif // THISTLE_WORKLOADS_WORKLOADS_H
