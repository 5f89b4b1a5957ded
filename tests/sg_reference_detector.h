#ifndef O2PC_TESTS_SG_REFERENCE_DETECTOR_H_
#define O2PC_TESTS_SG_REFERENCE_DETECTOR_H_

#include <algorithm>
#include <deque>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "sg/regular_cycle.h"
#include "sg/serialization_graph.h"

/// \file
/// Test-only reference model of regular-cycle detection: the full-closure
/// algorithm the production detector (sg/regular_cycle.h) was derived
/// from. It builds the per-site transitive closure between *every* pair of
/// global nodes, runs Kosaraju over that whole reduced multigraph, and
/// filters pivots and witnesses by component. Quadratic on near-serial
/// histories, but simple enough to trust; the differential property test
/// in sg_test.cc checks the SCC-first detector against it.

namespace o2pc::sg::testing {

class ReferenceRegularCycleDetector {
 public:
  using Options = RegularCycleDetector::Options;
  using Reduced = RegularCycleDetector::Reduced;

  ReferenceRegularCycleDetector(const SerializationGraph& global,
                                Options options)
      : options_(options) {
    BuildReduced(global);
    ComputeScc();
    FindPivots();
  }

  bool HasRegularCycle() const { return !pivots_.empty(); }
  const std::vector<NodeRef>& pivots() const { return pivots_; }
  const Reduced& reduced() const { return reduced_; }
  const std::map<NodeRef, int>& scc() const { return scc_; }

  std::optional<RegularCycleWitness> FindWitness() const {
    struct End {
      NodeRef node;
      SiteId site;
    };
    for (const NodeRef& pivot : pivots_) {
      const int component = scc_.at(pivot);
      std::vector<End> ins;
      std::vector<End> outs;
      for (const auto& [from, targets] : reduced_) {
        for (const auto& [to, edge_sites] : targets) {
          if (to == pivot && scc_.at(from) == component) {
            for (SiteId s : edge_sites) ins.push_back({from, s});
          }
          if (from == pivot && scc_.at(to) == component) {
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
          std::vector<NodeRef> tail;
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

 private:
  bool HasDirectEdge(const NodeRef& from, const NodeRef& to) const {
    auto it = reduced_.find(from);
    return it != reduced_.end() && it->second.contains(to);
  }

  void BuildReduced(const SerializationGraph& global) {
    for (const NodeRef& node : global.nodes()) {
      if (node.kind != TxnKind::kLocal) global_nodes_.insert(node);
    }
    std::set<SiteId> sites;
    for (const auto& [from, targets] : global.adjacency()) {
      for (const auto& [to, edge_sites] : targets) {
        sites.insert(edge_sites.begin(), edge_sites.end());
      }
    }
    for (SiteId site : sites) {
      std::map<NodeRef, std::vector<NodeRef>> site_adj;
      for (const auto& [from, targets] : global.adjacency()) {
        for (const auto& [to, edge_sites] : targets) {
          if (edge_sites.contains(site)) site_adj[from].push_back(to);
        }
      }
      for (const NodeRef& start : global_nodes_) {
        if (!site_adj.contains(start)) continue;
        std::set<NodeRef> visited{start};
        std::deque<NodeRef> frontier{start};
        while (!frontier.empty()) {
          NodeRef node = frontier.front();
          frontier.pop_front();
          auto it = site_adj.find(node);
          if (it == site_adj.end()) continue;
          for (const NodeRef& next : it->second) {
            if (!visited.insert(next).second) continue;
            if (next.kind != TxnKind::kLocal && next != start) {
              reduced_[start][next].insert(site);
            }
            frontier.push_back(next);
          }
        }
      }
    }
  }

  void ComputeScc() {
    std::map<NodeRef, std::vector<NodeRef>> fwd;
    std::map<NodeRef, std::vector<NodeRef>> rev;
    for (const NodeRef& node : global_nodes_) {
      fwd[node];
      rev[node];
    }
    for (const auto& [from, targets] : reduced_) {
      for (const auto& [to, edge_sites] : targets) {
        fwd[from].push_back(to);
        rev[to].push_back(from);
      }
    }
    std::vector<NodeRef> order;
    std::set<NodeRef> visited;
    for (const auto& [start, adj] : fwd) {
      if (visited.contains(start)) continue;
      std::vector<std::pair<NodeRef, std::size_t>> stack{{start, 0}};
      visited.insert(start);
      while (!stack.empty()) {
        auto& [node, idx] = stack.back();
        const std::vector<NodeRef>& adj_list = fwd[node];
        if (idx < adj_list.size()) {
          NodeRef next = adj_list[idx++];
          if (visited.insert(next).second) stack.push_back({next, 0});
        } else {
          order.push_back(node);
          stack.pop_back();
        }
      }
    }
    int component = 0;
    std::set<NodeRef> assigned;
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      if (assigned.contains(*it)) continue;
      std::deque<NodeRef> frontier{*it};
      assigned.insert(*it);
      while (!frontier.empty()) {
        NodeRef node = frontier.front();
        frontier.pop_front();
        scc_[node] = component;
        for (const NodeRef& prev : rev[node]) {
          if (assigned.insert(prev).second) frontier.push_back(prev);
        }
      }
      ++component;
    }
  }

  void FindPivots() {
    struct End {
      NodeRef node;
      SiteId site;
    };
    std::map<NodeRef, std::vector<End>> in_edges;
    for (const auto& [from, targets] : reduced_) {
      for (const auto& [to, edge_sites] : targets) {
        if (scc_.at(from) != scc_.at(to)) continue;
        for (SiteId site : edge_sites) in_edges[to].push_back({from, site});
      }
    }
    for (const NodeRef& node : global_nodes_) {
      if (node.kind != TxnKind::kGlobal) continue;
      auto in_it = in_edges.find(node);
      if (in_it == in_edges.end()) continue;
      auto out_it = reduced_.find(node);
      if (out_it == reduced_.end()) continue;
      bool is_pivot = false;
      for (const End& in : in_it->second) {
        for (const auto& [to, edge_sites] : out_it->second) {
          if (scc_.at(node) != scc_.at(to)) continue;
          for (SiteId out_site : edge_sites) {
            if (in.site == out_site) continue;
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

  Options options_;
  Reduced reduced_;
  std::set<NodeRef> global_nodes_;
  std::map<NodeRef, int> scc_;
  std::vector<NodeRef> pivots_;
};

}  // namespace o2pc::sg::testing

#endif  // O2PC_TESTS_SG_REFERENCE_DETECTOR_H_
