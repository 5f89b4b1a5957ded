#include "sg/regular_cycle.h"

#include <algorithm>
#include <deque>
#include <span>
#include <utility>

#include "common/logging.h"
#include "common/string_util.h"

namespace o2pc::sg {

namespace {

/// The global SG over dense indices in NodeRef order, as CSR arcs that
/// point at each edge's site set (the graph must outlive it).
struct IndexedGraph {
  struct Arc {
    std::size_t to;
    const std::set<SiteId>* sites;
  };

  explicit IndexedGraph(const SerializationGraph& global)
      : nodes(global.nodes().begin(), global.nodes().end()),
        first(nodes.size() + 1, 0) {
    std::size_t filled = 0;
    for (const auto& [from, targets] : global.adjacency()) {
      const std::size_t v = IndexOf(from);
      while (filled <= v) first[filled++] = arcs.size();
      for (const auto& [to, edge_sites] : targets) {
        arcs.push_back({IndexOf(to), &edge_sites});
      }
    }
    while (filled <= nodes.size()) first[filled++] = arcs.size();
  }

  std::size_t IndexOf(const NodeRef& node) const {
    return static_cast<std::size_t>(
        std::lower_bound(nodes.begin(), nodes.end(), node) - nodes.begin());
  }

  std::span<const Arc> ArcsOf(std::size_t v) const {
    return {arcs.data() + first[v], arcs.data() + first[v + 1]};
  }

  std::vector<NodeRef> nodes;
  std::vector<std::size_t> first;  // arcs of v: [first[v], first[v + 1])
  std::vector<Arc> arcs;
};

/// Iterative Tarjan: the SCC id of every node.
std::vector<int> StronglyConnectedComponents(const IndexedGraph& graph) {
  constexpr int kUnset = -1;
  const std::size_t n = graph.nodes.size();
  std::vector<int> order(n, kUnset);
  std::vector<int> low(n, 0);
  std::vector<int> component(n, kUnset);
  std::vector<std::size_t> stack;
  std::vector<std::pair<std::size_t, std::size_t>> calls;  // node, next arc
  int next_order = 0;
  int next_component = 0;
  for (std::size_t root = 0; root < n; ++root) {
    if (order[root] != kUnset) continue;
    order[root] = low[root] = next_order++;
    stack.push_back(root);
    calls.push_back({root, graph.first[root]});
    while (!calls.empty()) {
      const std::size_t v = calls.back().first;
      std::size_t& arc = calls.back().second;
      if (arc < graph.first[v + 1]) {
        const std::size_t w = graph.arcs[arc++].to;
        if (order[w] == kUnset) {
          order[w] = low[w] = next_order++;
          stack.push_back(w);
          calls.push_back({w, graph.first[w]});
        } else if (component[w] == kUnset) {  // still on the stack
          low[v] = std::min(low[v], order[w]);
        }
        continue;
      }
      if (low[v] == order[v]) {
        std::size_t w;
        do {
          w = stack.back();
          stack.pop_back();
          component[w] = next_component;
        } while (w != v);
        ++next_component;
      }
      calls.pop_back();
      if (!calls.empty()) {
        const std::size_t parent = calls.back().first;
        low[parent] = std::min(low[parent], low[v]);
      }
    }
  }
  return component;
}

}  // namespace

std::string RegularCycleWitness::ToString() const {
  std::vector<std::string> names;
  names.reserve(cycle.size() + 1);
  for (const NodeRef& node : cycle) names.push_back(NodeName(node));
  if (!cycle.empty()) names.push_back(NodeName(cycle.front()));
  return StrCat(NodeName(pivot), " (in@S", in_site, ", out@S", out_site,
                "): ", Join(names, " -> "));
}

RegularCycleDetector::RegularCycleDetector(const SerializationGraph& global)
    : RegularCycleDetector(global, Options{}) {}

RegularCycleDetector::RegularCycleDetector(const SerializationGraph& global,
                                           Options options)
    : options_(options) {
  BuildReduced(global);
  FindPivots();
}

bool RegularCycleDetector::HasDirectEdge(const NodeRef& from,
                                         const NodeRef& to) const {
  auto it = reduced_.find(from);
  return it != reduced_.end() && it->second.contains(to);
}

void RegularCycleDetector::BuildReduced(const SerializationGraph& global) {
  const IndexedGraph graph(global);
  const std::vector<int> component = StronglyConnectedComponents(graph);
  std::vector<int> component_size(component.size(), 0);
  for (int id : component) {
    if (++component_size[id] > 1) acyclic_ = false;
  }

  // Per-site closure from each global node of a cyclic SCC, walking only
  // arcs that stay inside it (every path between two of its nodes does).
  const std::size_t n = graph.nodes.size();
  std::vector<std::size_t> visited(n, 0);  // stamped per search
  std::size_t stamp = 0;
  std::vector<std::size_t> pending;
  for (std::size_t start = 0; start < n; ++start) {
    const NodeRef& from = graph.nodes[start];
    if (from.kind == TxnKind::kLocal) continue;
    const int id = component[start];
    scc_[from] = id;
    if (component_size[id] == 1) continue;
    std::set<SiteId> sites;
    for (const IndexedGraph::Arc& arc : graph.ArcsOf(start)) {
      if (component[arc.to] == id) {
        sites.insert(arc.sites->begin(), arc.sites->end());
      }
    }
    for (SiteId site : sites) {
      visited[start] = ++stamp;
      pending.assign(1, start);
      while (!pending.empty()) {
        const std::size_t v = pending.back();
        pending.pop_back();
        for (const IndexedGraph::Arc& arc : graph.ArcsOf(v)) {
          if (component[arc.to] != id || visited[arc.to] == stamp ||
              !arc.sites->contains(site)) {
            continue;
          }
          visited[arc.to] = stamp;
          const NodeRef& to = graph.nodes[arc.to];
          if (to.kind != TxnKind::kLocal) reduced_[from][to].insert(site);
          pending.push_back(arc.to);
        }
      }
    }
  }
}

void RegularCycleDetector::FindPivots() {
  // Concrete in-edges per node (every reduced edge is intra-SCC).
  struct End {
    NodeRef node;
    SiteId site;
  };
  std::map<NodeRef, std::vector<End>> in_edges;
  for (const auto& [from, targets] : reduced_) {
    for (const auto& [to, edge_sites] : targets) {
      for (SiteId site : edge_sites) in_edges[to].push_back({from, site});
    }
  }
  for (const auto& [node, outs] : reduced_) {
    if (node.kind != TxnKind::kGlobal) continue;  // pivots are regular
    auto in_it = in_edges.find(node);
    if (in_it == in_edges.end()) continue;
    bool is_pivot = false;
    for (const End& in : in_it->second) {
      for (const auto& [to, edge_sites] : outs) {
        for (SiteId out_site : edge_sites) {
          if (in.site == out_site) continue;
          // A one-segment bypass between the neighbours shortcuts the
          // two-segment route through this node in every minimal
          // representation.
          if (options_.drop_bypassable_pivots && in.node != to &&
              HasDirectEdge(in.node, to)) {
            continue;
          }
          is_pivot = true;
          break;
        }
        if (is_pivot) break;
      }
      if (is_pivot) break;
    }
    if (is_pivot) pivots_.push_back(node);
  }
}

std::optional<RegularCycleWitness> RegularCycleDetector::FindWitness() const {
  for (const NodeRef& pivot : pivots_) {
    // Concrete in/out edges with differing sites.
    struct End {
      NodeRef node;
      SiteId site;
    };
    std::vector<End> ins;
    std::vector<End> outs;
    for (const auto& [from, targets] : reduced_) {
      for (const auto& [to, edge_sites] : targets) {
        if (to == pivot) {
          for (SiteId s : edge_sites) ins.push_back({from, s});
        }
        if (from == pivot) {
          for (SiteId s : edge_sites) outs.push_back({to, s});
        }
      }
    }
    for (const End& in : ins) {
      for (const End& out : outs) {
        if (in.site == out.site) continue;
        if (options_.drop_bypassable_pivots && in.node != out.node &&
            HasDirectEdge(in.node, out.node)) {
          continue;
        }
        // BFS path out.node => in.node within the reduced graph.
        std::map<NodeRef, NodeRef> parent;
        std::deque<NodeRef> frontier{out.node};
        parent[out.node] = out.node;
        bool found = out.node == in.node;
        while (!frontier.empty() && !found) {
          NodeRef node = frontier.front();
          frontier.pop_front();
          auto adj_it = reduced_.find(node);
          if (adj_it == reduced_.end()) continue;
          for (const auto& [next, edge_sites] : adj_it->second) {
            (void)edge_sites;
            if (parent.contains(next)) continue;
            parent[next] = node;
            if (next == in.node) {
              found = true;
              break;
            }
            frontier.push_back(next);
          }
        }
        if (!found) continue;
        RegularCycleWitness witness;
        witness.pivot = pivot;
        witness.in_site = in.site;
        witness.out_site = out.site;
        std::vector<NodeRef> tail;  // in.node back to out.node
        for (NodeRef node = in.node;; node = parent.at(node)) {
          tail.push_back(node);
          if (node == out.node) break;
        }
        std::reverse(tail.begin(), tail.end());
        witness.cycle.push_back(pivot);
        for (const NodeRef& node : tail) {
          if (node != pivot) witness.cycle.push_back(node);
        }
        return witness;
      }
    }
  }
  return std::nullopt;
}

}  // namespace o2pc::sg
