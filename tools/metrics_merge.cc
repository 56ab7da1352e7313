// metrics_merge: aggregates per-process "basil-metrics-v1" snapshots (written by
// basil_node) into one cluster-wide "basil-bench-v1" artifact, or validates a single
// snapshot (docs/OBSERVABILITY.md).
//
//   metrics_merge --out BENCH_tcp_cluster.json snap0.json snap1.json ...
//   metrics_merge --check snap.json
//
// Merging is exact: histogram bucket counts add across processes, so the aggregated
// p50/p95/p99 come from the merged distribution, never from averaging per-process
// percentiles. Cluster throughput is derived from the client snapshots' protocol
// counters ("commits") over the longest client uptime; wire bytes are the sum of
// every snapshot's rt.wire.bytes_sent gauge.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "src/harness/report.h"
#include "src/obs/json.h"
#include "src/obs/metrics.h"

namespace basil {
namespace {

bool ReadFile(const std::string& path, std::string* out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return false;
  }
  char buf[1 << 16];
  size_t n = 0;
  out->clear();
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    out->append(buf, n);
  }
  std::fclose(f);
  return true;
}

// Parses `path` and checks the snapshot envelope. Returns false with a message on
// stderr for anything malformed — the CI smoke gate runs this as `--check`.
bool LoadSnapshot(const std::string& path, obs::JsonValue* root) {
  std::string text;
  if (!ReadFile(path, &text)) {
    std::fprintf(stderr, "%s: cannot read\n", path.c_str());
    return false;
  }
  std::string err;
  if (!obs::ParseJson(text, root, &err)) {
    std::fprintf(stderr, "%s: parse error: %s\n", path.c_str(), err.c_str());
    return false;
  }
  const obs::JsonValue* schema = root->Find("schema");
  if (schema == nullptr || schema->AsString("") != "basil-metrics-v1") {
    std::fprintf(stderr, "%s: not a basil-metrics-v1 snapshot\n", path.c_str());
    return false;
  }
  for (const char* key : {"counters", "gauges", "histograms", "proto"}) {
    const obs::JsonValue* v = root->Find(key);
    if (v == nullptr || v->type != obs::JsonValue::Type::kObject) {
      std::fprintf(stderr, "%s: missing object \"%s\"\n", path.c_str(), key);
      return false;
    }
  }
  return true;
}

// Folds one parsed snapshot into `reg`: counters add, gauges keep the max,
// histograms rebuild from their raw buckets (exact sums restored).
void IngestRegistry(const obs::JsonValue& root, obs::MetricsRegistry* reg) {
  for (const auto& [name, v] : root.Find("counters")->obj) {
    reg->Inc(reg->RegisterCounter(name), v.AsU64());
  }
  for (const auto& [name, v] : root.Find("gauges")->obj) {
    const obs::MetricId id = reg->RegisterGauge(name);
    const obs::JsonValue* max = v.Find("max");
    if (max != nullptr) {
      reg->Set(id, max->AsU64());  // Raises the merged high-water first.
    }
    const obs::JsonValue* value = v.Find("value");
    if (value != nullptr) {
      reg->Set(id, value->AsU64());
    }
  }
  for (const auto& [name, v] : root.Find("histograms")->obj) {
    obs::Histogram* h = reg->mutable_histogram(reg->RegisterHistogram(name));
    if (h == nullptr) {
      continue;  // Kind clash with another snapshot; skip rather than corrupt.
    }
    const obs::JsonValue* buckets = v.Find("buckets");
    if (buckets != nullptr) {
      for (const obs::JsonValue& pair : buckets->arr) {
        if (pair.arr.size() == 2) {
          h->AddBucket(static_cast<uint32_t>(pair.arr[0].AsU64()),
                       pair.arr[1].AsU64());
        }
      }
    }
    const obs::JsonValue* sum = v.Find("sum");
    if (sum != nullptr) {
      h->AddSum(sum->AsU64());
    }
    const obs::JsonValue* max = v.Find("max");
    if (max != nullptr) {
      h->RaiseMax(max->AsU64());
    }
  }
}

int Main(int argc, char** argv) {
  std::string out = "BENCH_tcp_cluster.json";
  bool check_only = false;
  std::vector<std::string> inputs;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--out" && i + 1 < argc) {
      out = argv[++i];
    } else if (arg == "--check") {
      check_only = true;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return 1;
    } else {
      inputs.push_back(arg);
    }
  }
  if (inputs.empty()) {
    std::fprintf(stderr,
                 "usage: metrics_merge [--out PATH] snap.json... | --check snap.json...\n");
    return 1;
  }

  obs::MetricsRegistry merged;
  uint64_t commits = 0;
  uint64_t aborts = 0;
  uint64_t client_uptime_ns = 0;
  uint64_t wire_bytes = 0;
  uint64_t replicas = 0;
  uint64_t clients = 0;
  for (const std::string& path : inputs) {
    obs::JsonValue root;
    if (!LoadSnapshot(path, &root)) {
      return 1;
    }
    if (check_only) {
      std::printf("OK %s\n", path.c_str());
      continue;
    }
    IngestRegistry(root, &merged);
    // Gauges merge as a max; bytes sent add across processes instead.
    if (const obs::JsonValue* g = root.Find("gauges")->Find("rt.wire.bytes_sent");
        g != nullptr && g->Find("value") != nullptr) {
      wire_bytes += g->Find("value")->AsU64();
    }
    const obs::JsonValue* role = root.Find("role");
    const obs::JsonValue* proto = root.Find("proto");
    const uint64_t uptime = root.Find("uptime_ns")->AsU64();
    if (role != nullptr && role->AsString("") == "client") {
      ++clients;
      if (const obs::JsonValue* c = proto->Find("commits"); c != nullptr) {
        commits += c->AsU64();
      }
      if (const obs::JsonValue* a = proto->Find("system_aborts"); a != nullptr) {
        aborts += a->AsU64();
      }
      client_uptime_ns = std::max(client_uptime_ns, uptime);
    } else {
      ++replicas;
    }
  }
  if (check_only) {
    return 0;
  }

  BenchJson artifact("tcp_cluster");
  artifact.AddParam("snapshots", static_cast<uint64_t>(inputs.size()));
  artifact.AddParam("replicas", replicas);
  artifact.AddParam("clients", clients);
  RunResult rr;
  rr.committed = commits;
  rr.attempts = commits + aborts;
  rr.commit_rate = rr.attempts > 0
                       ? static_cast<double>(commits) / static_cast<double>(rr.attempts)
                       : 0;
  rr.tput_tps = client_uptime_ns > 0 ? static_cast<double>(commits) * 1e9 /
                                           static_cast<double>(client_uptime_ns)
                                     : 0;
  rr.wire_bytes = wire_bytes;
  rr.wire_bytes_per_txn =
      commits > 0 ? static_cast<double>(wire_bytes) / static_cast<double>(commits) : 0;
  // Latency comes from the merged client commit-span histogram (exact bucket
  // sums across processes), so the cluster row carries real percentiles
  // instead of zeros.
  const obs::MetricId cid = merged.Find("span.client_commit_ns");
  if (cid != obs::kInvalidMetric) {
    if (const obs::Histogram* h = merged.histogram(cid);
        h != nullptr && h->Count() > 0) {
      rr.mean_ms = h->Mean() / 1e6;
      rr.p50_ms = h->Quantile(0.5) / 1e6;
      rr.p99_ms = h->Quantile(0.99) / 1e6;
    }
  }
  artifact.AddRow("cluster", rr);
  artifact.AddStages(merged);
  return artifact.WriteFile(out) ? 0 : 1;
}

}  // namespace
}  // namespace basil

int main(int argc, char** argv) { return basil::Main(argc, argv); }
