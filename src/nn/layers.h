#ifndef TGSIM_NN_LAYERS_H_
#define TGSIM_NN_LAYERS_H_

#include <vector>

#include "nn/autograd.h"

namespace tgsim::nn {

/// Base class for components owning trainable parameters.
///
/// Parameters registered via AddParam (or merged from sub-modules with
/// AbsorbParams) are exposed through params() for the optimizer.
class Module {
 public:
  virtual ~Module() = default;

  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;
  Module(Module&&) = default;
  Module& operator=(Module&&) = default;

  const std::vector<Var>& params() const { return params_; }
  std::vector<Var>& params() { return params_; }

  /// Total number of trainable scalars.
  int64_t NumParams() const;

 protected:
  Module() = default;

  Var AddParam(Tensor init) {
    Var p = Var::Param(std::move(init));
    params_.push_back(p);
    return p;
  }

  /// Appends another module's parameters to this module's list (parameter
  /// handles are shared, not copied).
  void AbsorbParams(const Module& sub) {
    params_.insert(params_.end(), sub.params().begin(), sub.params().end());
  }

 private:
  std::vector<Var> params_;
};

/// Fully connected layer: y = x W + b.
class Linear : public Module {
 public:
  Linear(Rng& rng, int in_features, int out_features, bool bias = true);

  Var Forward(const Var& x) const;

  int in_features() const { return w_.value().rows(); }
  int out_features() const { return w_.value().cols(); }
  const Var& weight() const { return w_; }

 private:
  Var w_;
  Var b_;
  bool has_bias_;
};

/// Activation selector for Mlp.
enum class Activation { kRelu, kTanh, kSigmoid, kLeakyRelu, kIdentity };

/// Applies the selected activation.
Var Activate(const Var& x, Activation act);

/// Multi-layer perceptron with `dims` = {in, hidden..., out}. The activation
/// is applied between layers, and after the last layer only when
/// `final_activation` is set.
class Mlp : public Module {
 public:
  Mlp(Rng& rng, const std::vector<int>& dims,
      Activation act = Activation::kRelu, bool final_activation = false);

  Var Forward(const Var& x) const;

  int out_features() const;

 private:
  std::vector<Linear> layers_;
  Activation act_;
  bool final_activation_;
};

/// Lookup table: Forward(idx) returns rows of the trainable weight matrix.
class Embedding : public Module {
 public:
  Embedding(Rng& rng, int num_embeddings, int dim);

  Var Forward(const std::vector<int>& indices) const;

  /// The full table as a Var (e.g., for scoring against all rows).
  const Var& table() const { return weight_; }
  int dim() const { return weight_.value().cols(); }
  int num_embeddings() const { return weight_.value().rows(); }

 private:
  Var weight_;
};

/// Gated recurrent unit cell; used by the sequence models of the TIGGER and
/// TagGen baselines.
class GruCell : public Module {
 public:
  GruCell(Rng& rng, int input_dim, int hidden_dim);

  /// One step: consumes x (B x in) and h (B x hidden), returns new h.
  Var Forward(const Var& x, const Var& h) const;

  /// Initial zero state for batch size B.
  Var InitialState(int batch) const;

  int hidden_dim() const { return hidden_dim_; }

 private:
  int hidden_dim_;
  Var wz_, uz_, bz_;
  Var wr_, ur_, br_;
  Var wh_, uh_, bh_;
};

}  // namespace tgsim::nn

#endif  // TGSIM_NN_LAYERS_H_
