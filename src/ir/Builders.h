//===- ir/Builders.h - CNN and matmul problem builders ----------*- C++ -*-===//
//
// Part of the Thistle reproduction (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Builders for the tensor programs used throughout the paper: the 7D CNN
/// loop nest of Listing 1 (generalized to dilated, transposed and
/// grouped/depthwise convolutions — docs/WORKLOADS.md) and the 3D matrix
/// multiplication of Fig. 1.
///
//===----------------------------------------------------------------------===//

#ifndef THISTLE_IR_BUILDERS_H
#define THISTLE_IR_BUILDERS_H

#include "ir/Problem.h"
#include "support/Status.h"

#include <string>
#include <vector>

namespace thistle {

/// Output-shape convention of a conv layer (docs/WORKLOADS.md). Table II
/// gives input sizes only; the paper's ResNet/Yolo stages use 'same'
/// padding, which stays the default.
enum class ConvPadding {
  /// Hout = ceil(Hin / stride): the frame is padded so that every input
  /// position starts a window (DESIGN.md). Independent of R and dilation.
  Same,
  /// No padding: Hout = (Hin - dilation*(R-1) - 1) / stride + 1. Requires
  /// the dilated kernel to fit inside the image.
  Valid,
};

/// Stable lower-case token for a padding convention ("same" / "valid").
const char *paddingName(ConvPadding Padding);

/// Parses a padding token as printed by paddingName().
Expected<ConvPadding> parsePadding(const std::string &Token);

/// Shape of one conv2D stage, in the paper's Table II convention, extended
/// with the dilation / transposed / grouped semantics of the general 7D
/// nest (EcoFlow; the 7-D loop-nest formalization in PAPERS.md).
struct ConvLayer {
  std::string Name;
  std::int64_t N = 1;   ///< Batch size (1 throughout the evaluation).
  std::int64_t K = 1;   ///< Output channels.
  std::int64_t C = 1;   ///< Input channels.
  std::int64_t Hin = 1; ///< Input image height (Table II's H).
  std::int64_t Win = 1; ///< Input image width (Table II's W).
  std::int64_t R = 1;   ///< Kernel height.
  std::int64_t S = 1;   ///< Kernel width.
  std::int64_t StrideX = 1; ///< Vertical kernel stride (paper's x).
  std::int64_t StrideY = 1; ///< Horizontal kernel stride (paper's y).
  /// Convolution dilation (the paper notes dilation "can be handled
  /// similarly" to strides — it becomes the stride of the r/s terms in
  /// the strided spatial projections).
  std::int64_t DilationX = 1;
  std::int64_t DilationY = 1;
  /// Channel groups: In's C channels and Out's K channels are split into
  /// Groups independent slices (K and C must divide). Groups == C is a
  /// depthwise layer.
  std::int64_t Groups = 1;
  /// Transposed (fractionally-strided) convolution: every input pixel
  /// scatter-accumulates a full kernel window into the output, so the
  /// strided projection x*h + r moves from In to Out and h/w range over
  /// the *input* image. Padding is ignored: the output is the full
  /// stride*(Hin-1) + dilation*(R-1) + 1 scatter extent.
  bool Transposed = false;
  /// Output-shape rule for direct (non-transposed) convolutions.
  ConvPadding Padding = ConvPadding::Same;

  /// Checks every field a user can supply: all dims/strides/dilations/
  /// groups positive, K and C divisible by Groups, and Valid padding only
  /// when the dilated kernel fits. InvalidArgument names the bad field.
  Status validate() const;

  /// Output spatial height under the layer's convention: Same ->
  /// ceil(Hin/stride), Valid -> (Hin - dilation*(R-1) - 1)/stride + 1,
  /// transposed -> stride*(Hin-1) + dilation*(R-1) + 1.
  std::int64_t outH() const;
  /// Output spatial width, same convention.
  std::int64_t outW() const;

  /// Total MACs = N*K*(C/Groups)*R*S * (spatial positions): outH()*outW()
  /// for direct convs, Hin*Win for transposed (every input pixel meets
  /// the full kernel). Equals makeConvProblem(*this).numOps().
  std::int64_t numMacs() const;

  /// Workload-class token for reports and telemetry: "transposed",
  /// "depthwise" (Groups == C > 1), "grouped", "dilated" or "dense".
  const char *layerClass() const;

  /// Canonical shape signature: every field a solve can depend on, the
  /// name excluded (network shape dedup, serve's in-flight dedup).
  std::string shapeKey() const;
};

/// The "custom" layer of a K,C,H,W,R,S[,stride[,dilation]] list of 6 to 8
/// values, the form `thistle-opt --layer` and the serve protocol's
/// "layer" workload take (both axes share the stride and the dilation).
ConvLayer customConvLayer(const std::vector<std::int64_t> &Dims);

/// Builds the CNN problem of Listing 1 for \p Layer, generalized over the
/// layer classes above (asserts Layer.validate()). Iterators appear in the
/// order n, [g,] k, c, r, s, h, w — the group iterator g (extent Groups)
/// exists only when Groups > 1, so dense layers build the exact 7D nest
/// the paper uses. Tensors appear in the order Out, In, Ker (Out is
/// read-write). For direct convs h/w range over the *output* spatial
/// extents and In carries the strided projections x*h + dil*r; for
/// transposed convs h/w range over the *input* extents and Out carries
/// them. Grouped channel dims are the 2-term projections (K/G)*g + k and
/// (C/G)*c_per_group projections described in docs/WORKLOADS.md.
Problem makeConvProblem(const ConvLayer &Layer);

/// Builds the 3D matrix-multiplication problem of Fig. 1:
/// C[i][j] += A[i][k] * B[k][j], iterators i, j, k; tensors C (read-write),
/// A, B.
Problem makeMatmulProblem(std::int64_t Ni, std::int64_t Nj, std::int64_t Nk);

} // namespace thistle

#endif // THISTLE_IR_BUILDERS_H
