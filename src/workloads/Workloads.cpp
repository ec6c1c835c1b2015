//===- workloads/Workloads.cpp - Paper evaluation workloads ---------------===//

#include "workloads/Workloads.h"

#include <utility>

using namespace thistle;

namespace {

/// Builds one square conv layer in Table II's format.
ConvLayer layer(std::string Name, std::int64_t K, std::int64_t C,
                std::int64_t HW, std::int64_t RS, std::int64_t Stride) {
  ConvLayer L;
  L.Name = std::move(Name);
  L.N = 1;
  L.K = K;
  L.C = C;
  L.Hin = HW;
  L.Win = HW;
  L.R = RS;
  L.S = RS;
  L.StrideX = Stride;
  L.StrideY = Stride;
  return L;
}

} // namespace

std::vector<ConvLayer> thistle::resnet18Layers() {
  return {
      layer("resnet-1", 64, 3, 224, 7, 2),
      layer("resnet-2", 64, 64, 56, 3, 1),
      layer("resnet-3", 64, 64, 56, 1, 1),
      layer("resnet-4", 128, 64, 56, 3, 2),
      layer("resnet-5", 128, 64, 56, 1, 2),
      layer("resnet-6", 128, 128, 28, 3, 1),
      layer("resnet-7", 256, 128, 28, 3, 2),
      layer("resnet-8", 256, 128, 28, 1, 1),
      layer("resnet-9", 256, 256, 14, 3, 1),
      layer("resnet-10", 512, 256, 14, 3, 2),
      layer("resnet-11", 512, 256, 14, 1, 2),
      layer("resnet-12", 512, 512, 7, 3, 1),
  };
}

std::vector<ConvLayer> thistle::yolo9000Layers() {
  return {
      layer("yolo-1", 32, 3, 544, 3, 1),
      layer("yolo-2", 64, 32, 272, 3, 1),
      layer("yolo-3", 128, 64, 136, 3, 1),
      layer("yolo-4", 64, 128, 136, 1, 1),
      layer("yolo-5", 256, 128, 68, 3, 1),
      layer("yolo-6", 128, 256, 68, 1, 1),
      layer("yolo-7", 512, 256, 34, 3, 1),
      layer("yolo-8", 256, 512, 34, 1, 1),
      layer("yolo-9", 1024, 512, 17, 3, 1),
      layer("yolo-10", 512, 1024, 17, 1, 1),
      layer("yolo-11", 28269, 1024, 17, 1, 1),
  };
}

std::vector<ConvLayer> thistle::allPaperLayers() {
  std::vector<ConvLayer> All = resnet18Layers();
  std::vector<ConvLayer> Yolo = yolo9000Layers();
  All.insert(All.end(), Yolo.begin(), Yolo.end());
  return All;
}

namespace {

/// Expands per-stage repeat counts into a flat instance list; repeated
/// instances get a ".k" suffix so the per-layer tables stay readable,
/// while the shape (all numeric fields) is untouched.
std::vector<ConvLayer> repeatLayers(const std::vector<ConvLayer> &Stages,
                                    const std::vector<unsigned> &Counts) {
  std::vector<ConvLayer> Out;
  for (std::size_t I = 0; I < Stages.size(); ++I) {
    const unsigned Reps = I < Counts.size() ? Counts[I] : 1;
    for (unsigned Rep = 0; Rep < Reps; ++Rep) {
      Out.push_back(Stages[I]);
      if (Reps > 1)
        Out.back().Name += "." + std::to_string(Rep + 1);
    }
  }
  return Out;
}

} // namespace

std::vector<ConvLayer> thistle::resnet18NetworkLayers() {
  // conv1, then per stage: the 3x3 body convs of both basic blocks plus
  // the stride-2 block's downsample path (Table II lists each shape
  // once; the counts restore the network's 21 conv instances).
  return repeatLayers(resnet18Layers(),
                      {1, 4, 1, 1, 1, 3, 1, 1, 3, 1, 1, 3});
}

std::vector<ConvLayer> thistle::yolo9000NetworkLayers() {
  // darknet-19's stacked 3x3/1x1 stages: the deeper 3x3 shapes and
  // their 1x1 bottlenecks recur, giving 19 conv instances.
  return repeatLayers(yolo9000Layers(),
                      {1, 1, 2, 1, 2, 1, 3, 2, 3, 2, 1});
}

std::vector<ConvLayer> thistle::allNetworkLayers() {
  std::vector<ConvLayer> All = resnet18NetworkLayers();
  std::vector<ConvLayer> Yolo = yolo9000NetworkLayers();
  All.insert(All.end(), Yolo.begin(), Yolo.end());
  return All;
}

namespace {

/// A depthwise 3x3 stage: one filter per input channel (Groups == C).
ConvLayer dwLayer(std::string Name, std::int64_t C, std::int64_t HW,
                  std::int64_t Stride) {
  ConvLayer L = layer(std::move(Name), C, C, HW, 3, Stride);
  L.Groups = C;
  return L;
}

/// A transposed (fractionally-strided) square stage.
ConvLayer tLayer(std::string Name, std::int64_t K, std::int64_t C,
                 std::int64_t HW, std::int64_t RS, std::int64_t Stride) {
  ConvLayer L = layer(std::move(Name), K, C, HW, RS, Stride);
  L.Transposed = true;
  return L;
}

/// A dilated square stage (stride 1).
ConvLayer dilLayer(std::string Name, std::int64_t K, std::int64_t C,
                   std::int64_t HW, std::int64_t RS, std::int64_t Dilation) {
  ConvLayer L = layer(std::move(Name), K, C, HW, RS, 1);
  L.DilationX = Dilation;
  L.DilationY = Dilation;
  return L;
}

} // namespace

std::vector<ConvLayer> thistle::mobilenetV2Layers() {
  // Width 1.0, 224x224 input. One entry per distinct shape, stem to
  // head; .dw marks the depthwise 3x3 of an inverted-residual block,
  // .ex/.pj its pointwise expand/project convs.
  return {
      layer("mbv2-1", 32, 3, 224, 3, 2),
      dwLayer("mbv2-2.dw", 32, 112, 1),
      layer("mbv2-3.pj", 16, 32, 112, 1, 1),
      layer("mbv2-4.ex", 96, 16, 112, 1, 1),
      dwLayer("mbv2-5.dw", 96, 112, 2),
      layer("mbv2-6.pj", 24, 96, 56, 1, 1),
      layer("mbv2-7.ex", 144, 24, 56, 1, 1),
      dwLayer("mbv2-8.dw", 144, 56, 1),
      layer("mbv2-9.pj", 24, 144, 56, 1, 1),
      dwLayer("mbv2-10.dw", 144, 56, 2),
      layer("mbv2-11.pj", 32, 144, 28, 1, 1),
      layer("mbv2-12.ex", 192, 32, 28, 1, 1),
      dwLayer("mbv2-13.dw", 192, 28, 1),
      layer("mbv2-14.pj", 32, 192, 28, 1, 1),
      dwLayer("mbv2-15.dw", 192, 28, 2),
      layer("mbv2-16.pj", 64, 192, 14, 1, 1),
      layer("mbv2-17.ex", 384, 64, 14, 1, 1),
      dwLayer("mbv2-18.dw", 384, 14, 1),
      layer("mbv2-19.pj", 64, 384, 14, 1, 1),
      layer("mbv2-20.pj", 96, 384, 14, 1, 1),
      layer("mbv2-21.ex", 576, 96, 14, 1, 1),
      dwLayer("mbv2-22.dw", 576, 14, 1),
      layer("mbv2-23.pj", 96, 576, 14, 1, 1),
      dwLayer("mbv2-24.dw", 576, 14, 2),
      layer("mbv2-25.pj", 160, 576, 7, 1, 1),
      layer("mbv2-26.ex", 960, 160, 7, 1, 1),
      dwLayer("mbv2-27.dw", 960, 7, 1),
      layer("mbv2-28.pj", 160, 960, 7, 1, 1),
      layer("mbv2-29.pj", 320, 960, 7, 1, 1),
      layer("mbv2-30", 1280, 320, 7, 1, 1),
  };
}

std::vector<ConvLayer> thistle::mobilenetV2NetworkLayers() {
  // The repeat counts restore MobileNetV2's 52 conv instances: expand
  // shapes recur across the tail blocks of one stage and the head block
  // of the next (e.g. 32->192 appears three times), depthwise and
  // project shapes across the residual blocks that keep their stage's
  // resolution.
  return repeatLayers(mobilenetV2Layers(),
                      {1, 1, 1, 1, 1, 1, 2, 1, 1, 1, 1, 3, 2, 2, 1,
                       1, 4, 4, 3, 1, 3, 2, 2, 1, 1, 3, 3, 2, 1, 1});
}

std::vector<ConvLayer> thistle::dcganLayers() {
  // Generator (64x64 DCGAN): four fractionally-strided convs from the
  // 4x4x1024 projection up to the image; outputs follow the full
  // stride*(Hin-1)+R convention (no cropping — docs/WORKLOADS.md).
  // Training also needs the backward pass of the discriminator's
  // stride-2 convs, which EcoFlow maps onto dilation-2 convolutions
  // over the upstream activations.
  return {
      tLayer("dcgan-g1", 512, 1024, 4, 4, 2),
      tLayer("dcgan-g2", 256, 512, 8, 4, 2),
      tLayer("dcgan-g3", 128, 256, 16, 4, 2),
      tLayer("dcgan-g4", 3, 128, 32, 4, 2),
      dilLayer("dcgan-d1", 128, 64, 32, 3, 2),
      dilLayer("dcgan-d2", 256, 128, 16, 3, 2),
  };
}

std::vector<ConvLayer> thistle::dcganNetworkLayers() { return dcganLayers(); }

bool thistle::networkLayersByName(std::string_view Name,
                                  std::vector<ConvLayer> &Out) {
  static constexpr std::pair<std::string_view, std::vector<ConvLayer> (*)()>
      Networks[] = {{"resnet18", resnet18NetworkLayers},
                    {"yolo9000", yolo9000NetworkLayers},
                    {"mobilenetv2", mobilenetV2NetworkLayers},
                    {"dcgan", dcganNetworkLayers},
                    {"all", allNetworkLayers}};
  for (const auto &[Known, Layers] : Networks)
    if (Name == Known) {
      Out = Layers();
      return true;
    }
  return false;
}

ArchConfig thistle::eyerissArch() {
  ArchConfig Arch;
  Arch.NumPEs = 168;
  Arch.RegWordsPerPE = 512;
  // 128 KB of shared scratchpad SRAM holding 16-bit words.
  Arch.SramWords = 128 * 1024 / 2;
  return Arch;
}

double thistle::eyerissAreaUm2(const TechParams &Tech) {
  return eyerissArch().areaUm2(Tech);
}
