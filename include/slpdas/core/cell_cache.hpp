// Content-addressed cell result cache.
//
// PR 5 made every sweep cell's identity canonical — the four spec strings
// (topology/protocol/attacker/radio) plus the derived cell_seed, the run
// count and the deterministic-timing flag — and the engine is
// bit-reproducible in that identity, so a cell's aggregated result is
// perfectly memoizable. A CellCache is a directory of one-record-per-cell
// files keyed by an FNV-1a hash of that canonical identity (plus a digest
// of the Table I parameters, which sit outside the four specs but change
// results): the sweep engine consults it before simulating a cell and
// populates it after, so overlapping sweeps, re-renders and repeated
// `custom` queries collapse to their distinct-cell set.
//
// The store follows the certstore/canonical split: canonical
// serialisation IS the key (CellCacheKey::material), writes are atomic
// (the library's one atomic writer: a unique tmp file whose counter is
// process-wide, then a rename — so concurrent writers of one key, even
// through two CellCache instances over one directory, are safe and
// readers never see a torn entry), and every read re-validates the
// record — schema string, stored identity fields, recomputed key — and
// treats any mismatch, truncation or parse error as a miss to recompute,
// never as data to trust.
//
// On-disk format ("slpdas.cachecell.v1"), one file per cell named
// `<key-hex16>.cachecell.json`, exactly two newline-terminated lines:
//
//   {"schema": "slpdas.cachecell.v1", "key": "<hex16>", "config":
//    {"topology": ..., "protocol": ..., "attacker": ..., "radio": ...},
//    "parameters": "<digest>", "cell_seed": N, "runs": N,
//    "deterministic": true|false}
//   {<cell record — same field set and byte discipline as a
//     "slpdas.cell.v1" stream record>}
//
// The cell record's grid-position fields (index, label, coordinates) are
// those of the sweep that produced it; a hit grafts the CURRENT sweep's
// position back on, so the same result can serve cells that different
// grids label differently.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "slpdas/core/sweep.hpp"

namespace slpdas::core {

/// Canonical identity of one cell result — everything the aggregated
/// metrics are a pure function of.
struct CellCacheKey {
  std::string topology;    ///< wsn::TopologySpec::to_string()
  std::string protocol;    ///< format_protocol_spec(...)
  std::string attacker;    ///< AttackerSpec::to_spec()
  std::string radio;       ///< format_radio_spec(...)
  /// Digest of the result-affecting config OUTSIDE the four specs
  /// (Table I parameters, schedule checking, casino-lab burst model);
  /// see format_parameter_digest.
  std::string parameters;
  std::uint64_t cell_seed = 0;  ///< the seed the cell's runs derive from
  int runs = 0;
  /// Serialisation mode rides along: deterministic records carry zeroed
  /// wall clocks and no perf block, real-clock records carry both, and a
  /// hit must reproduce the bytes of the mode it was stored under.
  bool deterministic = false;

  /// The canonical key material: schema line plus one "field=value" line
  /// per identity field, newline-terminated. Hash input and the record
  /// header's source of truth.
  [[nodiscard]] std::string material() const;
  /// FNV-1a 64-bit hash of material().
  [[nodiscard]] std::uint64_t hash() const;
  /// hash() as 16 lowercase hex digits — the entry's file-name stem.
  [[nodiscard]] std::string hex() const;

  friend bool operator==(const CellCacheKey&, const CellCacheKey&) = default;
};

/// Canonical digest of the result-affecting ExperimentConfig fields that
/// the four spec strings do not cover: the Table I parameters (Psrc,
/// Pslot, Pdiss, slots, MSP, NDP, DT, SD, CL, SSP, Cs, the simulation
/// bound), check_schedules, and the casino-lab burst parameters. Doubles
/// print in shortest-round-trip form, so equal configs always digest to
/// equal strings.
[[nodiscard]] std::string format_parameter_digest(
    const ExperimentConfig& config);

/// The cache key for one cell: spec strings + parameter digest from
/// `config`, plus the cell's derived seed, run count and timing mode.
[[nodiscard]] CellCacheKey make_cell_cache_key(const ExperimentConfig& config,
                                               std::uint64_t cell_seed,
                                               bool deterministic);

/// Counters over one CellCache's lifetime. A lookup is exactly one of
/// hit / miss (no entry) / rejected (an entry existed but failed
/// validation and will be recomputed, never trusted).
struct CellCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t rejected = 0;
  std::uint64_t stores = 0;
  std::uint64_t store_failures = 0;
};

/// A directory of cached cell results. Thread-safe: the sweep engine
/// calls store() from its workers concurrently.
class CellCache {
 public:
  /// Opens (and for writable caches creates, including parents) the
  /// directory. Throws std::runtime_error when a writable directory
  /// cannot be created or the path exists but is not a directory.
  explicit CellCache(std::string directory, bool read_only = false);

  /// The validated record for `key`, or std::nullopt on a miss or on a
  /// rejected entry (corrupt, truncated, schema or identity mismatch —
  /// recompute instead). Never throws on bad entries.
  [[nodiscard]] std::optional<SweepJsonCell> lookup(const CellCacheKey& key);

  /// Atomically writes the record for `key` through the shared atomic
  /// writer (unique tmp file + rename; concurrent writers of one key are
  /// safe — both write the same canonical bytes and the rename is
  /// atomic). No-op in read-only mode. Returns whether an entry was
  /// written; I/O failures count in
  /// stats().store_failures and are non-fatal (the sweep still has the
  /// computed result).
  bool store(const CellCacheKey& key, const SweepJsonCell& cell);

  [[nodiscard]] CellCacheStats stats() const;
  [[nodiscard]] const std::string& directory() const { return directory_; }
  [[nodiscard]] bool read_only() const { return read_only_; }
  /// Full path of the entry file for `key` (whether or not it exists).
  [[nodiscard]] std::string entry_path(const CellCacheKey& key) const;

 private:
  std::string directory_;
  bool read_only_ = false;
  mutable std::mutex mutex_;  ///< guards stats_
  CellCacheStats stats_;
};

// ---------------------------------------------------------------------------
// Maintenance (the CLI's `cache stats` / `cache verify` / `cache gc`)
// ---------------------------------------------------------------------------

struct CellCacheEntryReport {
  std::string path;
  std::uintmax_t bytes = 0;
  bool valid = false;
  std::string error;  ///< first validation failure when !valid
};

struct CellCacheScanReport {
  std::vector<CellCacheEntryReport> entries;  ///< *.cachecell.json, sorted
  /// Leftover atomic-write tmp files (a crashed writer); gc removes them.
  std::vector<std::string> temp_files;
  std::size_t valid = 0;
  std::size_t invalid = 0;
  std::uintmax_t total_bytes = 0;  ///< over entries (tmp files excluded)
};

/// Scans a cache directory, re-validating every entry exactly the way
/// lookup() does (plus: the file name must match the recomputed key).
/// Files that are neither entries nor this library's tmp files are
/// ignored — the cache never claims foreign data. Throws
/// std::runtime_error when `directory` does not exist or is unreadable.
[[nodiscard]] CellCacheScanReport scan_cell_cache(
    const std::string& directory);

struct CellCacheGcReport {
  std::size_t removed_invalid = 0;
  std::size_t removed_temp = 0;
  std::uintmax_t reclaimed_bytes = 0;
};

/// Removes every invalid entry and leftover tmp file found by
/// scan_cell_cache; valid entries and foreign files are untouched.
CellCacheGcReport gc_cell_cache(const std::string& directory);

}  // namespace slpdas::core
