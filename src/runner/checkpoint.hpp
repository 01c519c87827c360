// Sweep checkpointing: resume an interrupted grid bench bit-identically.
//
// A SweepCheckpoint is a disk-backed map from cell id to that cell's raw
// replicate results. A bench that checkpoints computes each cell either by
// running its replicates or by reading them back, then renders its tables
// from the recovered values — so a run killed half-way and resumed produces
// *the same bytes* as an uninterrupted run. Two properties make that sound:
//
//  * values are serialized as C hexfloats (%a), which round-trip IEEE
//    doubles exactly — no decimal rounding on the resume path;
//  * the file is append-only, one "cell" line per completed cell, flushed
//    after each append; a truncated last line (the process died mid-write)
//    is detected and ignored on reload.
//
// The header pins the experiment name and a caller-supplied fingerprint of
// the sweep configuration (grid shape, reps, seeds); reopening with a
// different fingerprint throws — a checkpoint must never silently feed a
// differently-configured sweep. Format details: docs/faults.md.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace flowsched {

class SweepCheckpoint {
 public:
  /// Opens (or creates) the checkpoint at `path`. An existing file must
  /// carry the same `experiment` and `fingerprint` in its header, else
  /// std::runtime_error — delete the file to restart the sweep.
  SweepCheckpoint(std::string path, std::string experiment,
                  std::uint64_t fingerprint);

  bool has(std::uint64_t cell) const { return cells_.count(cell) != 0; }

  /// Values recorded for `cell`; throws std::out_of_range when !has(cell).
  const std::vector<double>& get(std::uint64_t cell) const;

  /// Records a completed cell and flushes it to disk. Re-putting an
  /// existing cell requires bit-identical values (determinism guard) and
  /// does not rewrite the file.
  void put(std::uint64_t cell, const std::vector<double>& values);

  /// Cells recovered from disk when the checkpoint was opened.
  int resumed() const { return resumed_; }

 private:
  std::string path_;
  std::string experiment_;
  std::uint64_t fingerprint_;
  std::map<std::uint64_t, std::vector<double>> cells_;
  int resumed_ = 0;
};

}  // namespace flowsched
