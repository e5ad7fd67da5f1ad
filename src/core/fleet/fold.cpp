// The fleet fold: worker streams -> one unsharded "slpdas.sweep.v2"
// document, byte-identical (under deterministic timing) to a
// single-process run. This is the single-threaded stable merge of the
// determinism contract — all the parallelism happened in the workers —
// and it adds only the cross-worker dedupe to fold_cell_stream.
#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "slpdas/core/fleet.hpp"

namespace slpdas::core {
namespace {

namespace fs = std::filesystem;

/// Canonical bytes of one cell record — the duplicate-equality test. Two
/// workers that both completed a cell (a death between the stream flush
/// and the done marker) must have produced identical bytes under
/// --deterministic; anything else is a real nondeterminism bug and must
/// fail the fold, not silently pick a winner.
[[nodiscard]] std::string record_bytes(const SweepJsonCell& cell) {
  std::ostringstream out;
  write_cell_stream_record(out, cell);
  return std::move(out).str();
}

}  // namespace

SweepJson merge_worker_streams(const ShardMapManifest& manifest,
                               const std::vector<CellStream>& streams) {
  // First stream (in the caller's order — fold_fleet_directory passes
  // filename order) wins a duplicate, so the fold is deterministic in
  // the directory contents alone.
  std::map<std::uint64_t, const SweepJsonCell*> chosen;
  for (const CellStream& stream : streams) {
    verify_cell_stream_resumable(stream.header, manifest.sweep,
                                 "fleet fold: worker stream");
    for (const SweepJsonCell& cell : stream.cells) {
      const auto [it, inserted] = chosen.emplace(cell.index, &cell);
      if (!inserted && manifest.sweep.deterministic &&
          record_bytes(cell) != record_bytes(*it->second)) {
        throw std::runtime_error(
            "fleet fold: cell " + std::to_string(cell.index) +
            " was recorded by two workers with DIFFERENT bytes — "
            "nondeterministic worker results");
      }
    }
  }
  // The survivors fold like ONE process's full-grid stream whose pool was
  // the whole fleet (manifest.sweep.threads = workers x worker_threads).
  CellStream folded;
  folded.header = manifest.sweep;
  folded.cells.reserve(chosen.size());
  for (const auto& [index, cell] : chosen) {
    folded.cells.push_back(*cell);
  }
  return fold_cell_stream(folded);
}

SweepJson fold_fleet_directory(const std::string& directory) {
  const std::optional<ShardMapManifest> manifest =
      read_shardmap_manifest(directory);
  if (!manifest) {
    throw std::runtime_error("fleet fold: no shardmap.json in " + directory);
  }
  const std::string streams_dir = directory + "/streams";
  std::vector<std::string> paths;
  std::error_code ec;
  fs::directory_iterator it(streams_dir, ec);
  if (!ec) {
    for (const fs::directory_entry& entry : it) {
      if (entry.path().extension() == ".jsonl") {
        paths.push_back(entry.path().string());
      }
    }
  }
  std::sort(paths.begin(), paths.end());

  std::vector<CellStream> streams;
  streams.reserve(paths.size());
  for (const std::string& path : paths) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      throw std::runtime_error("fleet fold: cannot open " + path);
    }
    std::ostringstream text;
    text << in.rdbuf();
    const std::string content = std::move(text).str();
    if (content.find('\n') == std::string::npos) {
      // A worker killed before its first flush left no complete header
      // line — an empty incarnation, not an error.
      continue;
    }
    std::istringstream stream_in(content);
    streams.push_back(read_cell_stream(stream_in));
  }
  return merge_worker_streams(*manifest, streams);
}

}  // namespace slpdas::core
