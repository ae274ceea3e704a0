#include "replay.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <sstream>
#include <unordered_set>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "core/tgat_encoder.h"
#include "datasets/io.h"
#include "graph/bipartite.h"
#include "graph/ego_sampler.h"
#include "nn/autograd.h"
#include "nn/kernels.h"
#include "nn/layers.h"
#include "nn/optim.h"
#include "sampling/samplers.h"

namespace e2ebench {

namespace tg = tgsim::graphs;
namespace nn = tgsim::nn;

namespace {

/// The TGAE modules at the fitted shapes (TgaeGenerator::BuildModel for
/// the tied, probabilistic paper configuration).
struct Model {
  Model(const tgsim::core::TgaeConfig& c, int n, int t, tgsim::Rng& rng)
      : node_emb(rng, n, c.embedding_dim),
        time_emb(rng, t, c.embedding_dim),
        encoder(rng, c.embedding_dim, c.hidden_dim, c.num_heads, c.radius),
        mlp_mu(rng, {c.embedding_dim, c.hidden_dim, c.hidden_dim},
               nn::Activation::kTanh),
        mlp_sigma(rng, {c.embedding_dim, c.hidden_dim, c.hidden_dim},
                  nn::Activation::kTanh),
        b_dec(nn::Var::Param(nn::Tensor::Zeros(1, n))) {
    for (const nn::Module* m :
         {static_cast<const nn::Module*>(&node_emb),
          static_cast<const nn::Module*>(&time_emb),
          static_cast<const nn::Module*>(&encoder),
          static_cast<const nn::Module*>(&mlp_mu),
          static_cast<const nn::Module*>(&mlp_sigma)})
      params.insert(params.end(), m->params().begin(), m->params().end());
    params.push_back(b_dec);
  }

  nn::Var InputFeatures(const std::vector<tg::TemporalNodeRef>& nodes) const {
    std::vector<int> node_idx(nodes.size());
    std::vector<int> time_idx(nodes.size());
    for (size_t i = 0; i < nodes.size(); ++i) {
      node_idx[i] = nodes[i].node;
      time_idx[i] = nodes[i].t;
    }
    return nn::Add(node_emb.Forward(node_idx), time_emb.Forward(time_idx));
  }

  nn::Embedding node_emb;
  nn::Embedding time_emb;
  tgsim::core::TgatEncoder encoder;
  nn::Mlp mlp_mu;
  nn::Mlp mlp_sigma;
  nn::Var b_dec;
  std::vector<nn::Var> params;
};

struct Encoded {
  nn::Var rows;
  nn::Var mu;
  nn::Var logvar;
  std::vector<tg::TemporalNodeRef> row_nodes;
};

/// TgaeGenerator::Encode: bipartite stack, TGAT encode, Alg. 2 row
/// assembly, variational head.
Encoded Encode(const Model& m, const std::vector<tg::EgoGraph>& egos,
               int radius, bool centers_only, bool stochastic,
               tgsim::Rng& rng, Tracer& tracer) {
  tg::BipartiteStack stack;
  {
    Span span(tracer, "graph.bipartite");
    stack = tg::BuildBipartiteStack(egos, radius);
  }
  Encoded out;
  nn::Var h0;
  std::vector<int> center_of_row, z_src, z_dst;
  std::vector<tg::TemporalNodeRef> z_nodes;
  {
    Span span(tracer, "core.encode");
    h0 = m.encoder.Forward(
        stack, m.InputFeatures(stack.layer_nodes[static_cast<size_t>(radius)]));
    for (size_t e = 0; e < egos.size(); ++e) {
      const tg::EgoGraph& ego = egos[e];
      if (centers_only) {
        out.row_nodes.push_back(ego.center);
        center_of_row.push_back(stack.center_index[e]);
        z_src.push_back(static_cast<int>(z_nodes.size()));
        z_dst.push_back(static_cast<int>(out.row_nodes.size()) - 1);
        z_nodes.push_back(ego.center);
        continue;
      }
      const std::vector<int> parent = tgsim::core::PathSumParents(ego);
      const int z_base = static_cast<int>(z_nodes.size());
      z_nodes.insert(z_nodes.end(), ego.nodes.begin(), ego.nodes.end());
      for (int j = 0; j < ego.size(); ++j) {
        const int row = static_cast<int>(out.row_nodes.size());
        out.row_nodes.push_back(ego.nodes[static_cast<size_t>(j)]);
        center_of_row.push_back(stack.center_index[e]);
        if (j == 0) {
          z_src.push_back(z_base);
          z_dst.push_back(row);
          continue;
        }
        for (int cur = j, guard = 0; cur > 0 && guard++ <= ego.size();
             cur = parent[static_cast<size_t>(cur)]) {
          z_src.push_back(z_base + cur);
          z_dst.push_back(row);
        }
      }
    }
  }
  Span span(tracer, "nn.var_head");
  const nn::Var x_z = m.InputFeatures(z_nodes);
  out.mu = m.mlp_mu.Forward(x_z);
  out.logvar = m.mlp_sigma.Forward(x_z);
  nn::Var z = out.mu;
  if (stochastic) {
    const nn::Var noise = nn::Var::Constant(
        nn::Tensor::Randn(rng, out.mu.rows(), out.mu.cols()));
    z = nn::Add(out.mu,
                nn::Mul(nn::Exp(nn::Scale(out.logvar, 0.5)), noise));
  }
  const int num_rows = static_cast<int>(out.row_nodes.size());
  out.rows = nn::Add(nn::GatherRows(h0, center_of_row),
                     nn::SegmentSum(nn::GatherRows(z, z_src), z_dst, num_rows));
  return out;
}

/// Dense n-wide tied decode: rows x E^T + b.
nn::Var Decode(const Model& m, const nn::Var& rows, Tracer& tracer) {
  Span span(tracer, "nn.decode");
  return nn::Add(nn::MatMul(rows, nn::Transpose(m.node_emb.table())),
                 m.b_dec);
}

void CheckPaperConfig(const tgsim::core::TgaeConfig& c) {
  TGSIM_CHECK(c.tie_decoder && !c.sparse_decoder && c.probabilistic);
}

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

ReplayResult ReplayTrainEpochs(const tg::TemporalGraph& observed,
                               const tgsim::core::TgaeConfig& config,
                               int epochs, uint64_t seed, Tracer& tracer) {
  CheckPaperConfig(config);
  const int n = observed.num_nodes();
  tgsim::Rng rng(seed);
  Model model(config, n, observed.num_timestamps(), rng);
  tg::EgoGraphConfig ego_cfg;
  ego_cfg.radius = config.radius;
  ego_cfg.neighbor_threshold = config.neighbor_threshold;
  ego_cfg.time_window = config.time_window;
  const tg::EgoGraphSampler ego_sampler(&observed, ego_cfg);
  const tg::InitialNodeSampler centers(&observed, config.time_window,
                                       !config.degree_weighted_sampling);
  nn::Adam opt(model.params, config.learning_rate);

  ReplayResult result;
  const size_t begin = tracer.Mark(0);
  const auto start = std::chrono::steady_clock::now();
  for (int epoch = 0; epoch < epochs; ++epoch) {
    Span epoch_span(tracer, "replay.epoch", epoch);
    std::vector<tg::EgoGraph> egos;
    {
      Span span(tracer, "graph.ego_sample");
      for (const auto& c : centers.Sample(config.batch_centers, rng))
        egos.push_back(ego_sampler.Sample(c, rng));
    }
    for (const auto& ego : egos) result.ego_nodes += ego.size();
    {
      Span span(tracer, "nn.optim");
      opt.ZeroGrad();
    }
    Encoded enc = Encode(model, egos, config.radius, /*centers_only=*/false,
                         /*stochastic=*/true, rng, tracer);
    const nn::Var logits = Decode(model, enc.rows, tracer);
    result.decode_rows += logits.rows();
    // TgaeGenerator::TargetRows: the normalized adjacency row of every
    // decoded temporal node, scattered densely for the loss.
    std::vector<std::vector<tg::TemporalNeighbor>> target_rows(
        enc.row_nodes.size());
    {
      Span span(tracer, "graph.support");
      for (size_t r = 0; r < enc.row_nodes.size(); ++r) {
        const tg::TemporalNodeRef v = enc.row_nodes[r];
        target_rows[r] = observed.OutNeighborhood(v.node, v.t, 0);
        if (target_rows[r].empty())
          target_rows[r] = observed.TemporalNeighborhood(v.node, v.t, 0);
      }
    }
    nn::Var loss;
    {
      Span span(tracer, "nn.loss");
      nn::Tensor dense(logits.rows(), n);
      for (size_t r = 0; r < target_rows.size(); ++r) {
        const double w = 1.0 / static_cast<double>(
                                   std::max<size_t>(1, target_rows[r].size()));
        for (const auto& nb : target_rows[r])
          dense.at(static_cast<int>(r), nb.node) += w;
      }
      loss = nn::Add(nn::RowCrossEntropyWithLogits(logits, dense),
                     nn::Scale(nn::KlToStandardNormal(enc.mu, enc.logvar),
                               config.kl_weight));
    }
    {
      Span span(tracer, "nn.backward");
      nn::Backward(loss);
    }
    Span span(tracer, "nn.optim");
    opt.ClipGradNorm(5.0);
    opt.Step();
    (void)loss.item();
  }
  result.wall_ms = MsSince(start);
  result.layer_ms = tracer.SelfMs(0, begin, tracer.Mark(0));
  return result;
}

ReplayResult ReplayGenerate(const tg::TemporalGraph& observed,
                            const tgsim::core::TgaeConfig& config,
                            uint64_t seed, Tracer& tracer) {
  CheckPaperConfig(config);
  const int n = observed.num_nodes();
  tgsim::Rng init(seed);
  const Model model(config, n, observed.num_timestamps(), init);
  tg::EgoGraphConfig ego_cfg;
  ego_cfg.radius = config.radius;
  ego_cfg.neighbor_threshold = config.neighbor_threshold;
  ego_cfg.time_window = config.time_window;
  const tg::EgoGraphSampler ego_sampler(&observed, ego_cfg);
  tgsim::Rng rng(seed + 1);

  ReplayResult result;
  const size_t begin = tracer.Mark(0);
  const auto start = std::chrono::steady_clock::now();
  tg::TemporalGraph out(n, observed.num_timestamps());
  for (int t = 0; t < observed.num_timestamps(); ++t) {
    std::vector<tg::TemporalNodeRef> occ;
    std::vector<int> budget;
    {
      Span span(tracer, "graph.support");
      std::vector<int> count(static_cast<size_t>(n), 0);
      for (const auto& e : observed.EdgesAt(t)) ++count[static_cast<size_t>(e.u)];
      for (int u = 0; u < n; ++u) {
        if (count[static_cast<size_t>(u)] == 0) continue;
        occ.push_back({u, t});
        budget.push_back(count[static_cast<size_t>(u)]);
      }
    }
    for (size_t base = 0; base < occ.size();
         base += static_cast<size_t>(config.generation_chunk)) {
      const size_t end = std::min(
          occ.size(), base + static_cast<size_t>(config.generation_chunk));
      ++result.gen_chunks;
      std::vector<tg::EgoGraph> egos;
      {
        Span span(tracer, "graph.ego_sample");
        for (size_t i = base; i < end; ++i)
          egos.push_back(ego_sampler.Sample(occ[i], rng));
      }
      for (const auto& ego : egos) result.ego_nodes += ego.size();
      std::vector<std::vector<tg::NodeId>> supports(end - base);
      std::vector<std::vector<bool>> exacts(end - base);
      {
        Span span(tracer, "graph.support");
        for (size_t i = base; i < end; ++i) {
          const tg::NodeId u = occ[i].node;
          std::unordered_set<tg::NodeId> seen;
          for (const auto& nb : observed.OutNeighborhood(
                   u, occ[i].t, config.generation_time_window)) {
            if (nb.node == u) continue;
            if (seen.insert(nb.node).second) {
              supports[i - base].push_back(nb.node);
              exacts[i - base].push_back(nb.t == occ[i].t);
            } else if (nb.t == occ[i].t) {
              for (size_t c = 0; c < supports[i - base].size(); ++c)
                if (supports[i - base][c] == nb.node) exacts[i - base][c] = true;
            }
          }
        }
      }
      const Encoded enc = Encode(model, egos, config.radius,
                                 /*centers_only=*/true, /*stochastic=*/false,
                                 rng, tracer);
      const nn::Var logits_var = Decode(model, enc.rows, tracer);
      result.decode_rows += logits_var.rows();
      const nn::Tensor& logits = logits_var.value();

      Span span(tracer, "sampling.draw");
      for (size_t i = base; i < end; ++i) {
        const int row = static_cast<int>(i - base);
        const tg::NodeId u = occ[i].node;
        const std::vector<tg::NodeId>& support = supports[i - base];
        std::vector<double> w(support.size());
        if (!support.empty()) {
          std::vector<nn::Scalar> sup(support.size());
          for (size_t c = 0; c < support.size(); ++c)
            sup[c] = logits.at(row, support[c]);
          const int count = static_cast<int>(support.size());
          nn::kernels::ExpRow(sup.data(), nn::kernels::RowMax(sup.data(), count),
                              w.data(), count);
          for (size_t c = 0; c < support.size(); ++c)
            if (!exacts[i - base][c]) w[c] *= config.generation_ring_weight;
        }
        const int wanted = std::min(budget[i], n - 1);
        int from_support = std::min(wanted, static_cast<int>(support.size()));
        tgsim::sampling::TreeSampler tree(w);
        for (int d = 0; d < from_support; ++d) {
          const size_t pick = tree.Draw(rng);
          ++result.draws;
          out.AddEdge(u, support[pick], t);
          tree.Update(pick, 0.0);
          if (!(tree.total() > 0.0)) {
            from_support = d + 1;
            break;
          }
        }
        if (from_support < wanted && !support.empty()) {
          const tgsim::sampling::TreeSampler replay(w);
          for (int d = from_support; d < wanted; ++d, ++result.draws)
            out.AddEdge(u, support[replay.Draw(rng)], t);
        } else if (from_support < wanted) {
          // Empty support: the full softmax row, without replacement.
          std::span<const nn::Scalar> row_logits = logits.RowSpan(row);
          std::vector<double> full(row_logits.begin(), row_logits.end());
          const nn::Scalar m = nn::kernels::RowMax(full.data(), n);
          nn::kernels::ExpRow(full.data(), m, full.data(), n);
          full[static_cast<size_t>(u)] = 0.0;
          for (int d = from_support; d < wanted; ++d, ++result.draws) {
            double mass = 0.0;
            for (double x : full) mass += x;
            if (!(mass > 0.0)) break;
            const size_t v = tgsim::sampling::WeightedPick(full, rng);
            out.AddEdge(u, static_cast<tg::NodeId>(v), t);
            full[v] = 0.0;
          }
        }
      }
    }
  }
  {
    Span span(tracer, "graph.finalize");
    out.Finalize();
  }
  {
    Span span(tracer, "datasets.write_edges");
    std::ostringstream payload;
    tgsim::datasets::WriteEdgeList(out, payload);
  }
  result.wall_ms = MsSince(start);
  result.layer_ms = tracer.SelfMs(0, begin, tracer.Mark(0));
  return result;
}

void ReportReplay(const ReplayResult& replay, double per_op, int num_nodes,
                  int dim, Report& report) {
  for (const char* layer :
       {"graph.ego_sample", "graph.bipartite", "graph.support",
        "graph.finalize", "core.encode", "nn.var_head", "nn.decode", "nn.loss",
        "nn.backward", "nn.optim", "sampling.draw"}) {
    const auto it = replay.layer_ms.find(layer);
    if (it != replay.layer_ms.end())
      report.Set(std::string(layer) + "_ms", it->second * per_op);
  }
  const double rows = static_cast<double>(replay.decode_rows) * per_op;
  report.Set("graph.ego_nodes", static_cast<double>(replay.ego_nodes) * per_op);
  report.Set("nn.decode_rows", rows);
  report.Set("nn.decode_gflop", 2.0 * rows * num_nodes * dim / 1e9);
  if (replay.gen_chunks > 0) {
    report.Set("core.gen_chunks",
               static_cast<double>(replay.gen_chunks) * per_op);
    report.Set("sampling.draws", static_cast<double>(replay.draws) * per_op);
  }
}

}  // namespace e2ebench
