#include "baselines/er_ba.h"

namespace tgsim::baselines {

graphs::TemporalGraph ErdosRenyiGenerator::Generate(Rng& rng) const {
  TGSIM_CHECK_GT(shape().num_nodes, 0);
  graphs::TemporalGraph g(shape().num_nodes, shape().num_timestamps);
  const int n = shape().num_nodes;
  for (int t = 0; t < shape().num_timestamps; ++t) {
    for (int64_t e = 0; e < shape().edges_per_timestamp[t]; ++e) {
      graphs::NodeId u =
          static_cast<graphs::NodeId>(rng.UniformInt(static_cast<int64_t>(n)));
      graphs::NodeId v =
          static_cast<graphs::NodeId>(rng.UniformInt(static_cast<int64_t>(n)));
      if (v == u) v = static_cast<graphs::NodeId>((v + 1) % n);
      g.AddEdge(u, v, static_cast<graphs::Timestamp>(t));
    }
  }
  g.Finalize();
  return g;
}

graphs::TemporalGraph BarabasiAlbertGenerator::Generate(Rng& rng) const {
  TGSIM_CHECK_GT(shape().num_nodes, 0);
  graphs::TemporalGraph g(shape().num_nodes, shape().num_timestamps);
  const int n = shape().num_nodes;
  std::vector<graphs::NodeId> pool;  // Endpoint multiset (degree-prop).
  pool.reserve(static_cast<size_t>(2 * shape().total_edges()));
  for (int t = 0; t < shape().num_timestamps; ++t) {
    for (int64_t e = 0; e < shape().edges_per_timestamp[t]; ++e) {
      graphs::NodeId u =
          static_cast<graphs::NodeId>(rng.UniformInt(static_cast<int64_t>(n)));
      graphs::NodeId v;
      if (!pool.empty() && rng.Bernoulli(0.9)) {
        v = pool[static_cast<size_t>(
            rng.UniformInt(static_cast<int64_t>(pool.size())))];
      } else {
        v = static_cast<graphs::NodeId>(
            rng.UniformInt(static_cast<int64_t>(n)));
      }
      if (v == u) v = static_cast<graphs::NodeId>((v + 1) % n);
      g.AddEdge(u, v, static_cast<graphs::Timestamp>(t));
      pool.push_back(u);
      pool.push_back(v);
    }
  }
  g.Finalize();
  return g;
}

}  // namespace tgsim::baselines
