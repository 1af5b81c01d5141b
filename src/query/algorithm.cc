#include "query/algorithm.h"

namespace convoy {

AlgorithmCapabilities CapabilitiesOf(AlgorithmId id) {
  AlgorithmCapabilities caps;
  switch (id) {
    case AlgorithmId::kCmc:
      // Exact CMC (paper Algorithm 1) clusters one snapshot per tick.
      caps.uses_snapshot_store = true;
      break;
    case AlgorithmId::kCuts:
    case AlgorithmId::kCutsPlus:
    case AlgorithmId::kCutsStar:
      // Filter-and-refine (paper Algorithms 2-3): exact, because refinement
      // removes every false hit; clusters polylines, not snapshots.
      caps.uses_simplification = true;
      break;
    case AlgorithmId::kMc2:
      // One uninterruptible approximate pass: false positives and
      // negatives by design, no hooks, one thread.
      caps.exact = false;
      caps.uses_snapshot_store = true;
      return caps;
  }
  caps.supports_cancel = true;
  caps.supports_progress = true;
  caps.supports_incremental = true;
  caps.supports_threads = true;
  return caps;
}

std::string_view ToString(AlgorithmId id) {
  switch (id) {
    case AlgorithmId::kCmc:
      return "CMC";
    case AlgorithmId::kCuts:
      return "CuTS";
    case AlgorithmId::kCutsPlus:
      return "CuTS+";
    case AlgorithmId::kCutsStar:
      return "CuTS*";
    case AlgorithmId::kMc2:
      return "MC2";
  }
  return "?";
}

std::string_view ToString(AlgorithmChoice choice) {
  switch (choice) {
    case AlgorithmChoice::kAuto:
      return "auto";
    case AlgorithmChoice::kCmc:
      return "CMC";
    case AlgorithmChoice::kCuts:
      return "CuTS";
    case AlgorithmChoice::kCutsPlus:
      return "CuTS+";
    case AlgorithmChoice::kCutsStar:
      return "CuTS*";
    case AlgorithmChoice::kMc2:
      return "MC2";
  }
  return "?";
}

std::optional<AlgorithmChoice> ParseAlgorithmChoice(std::string_view name) {
  if (name == "auto") return AlgorithmChoice::kAuto;
  if (name == "cmc") return AlgorithmChoice::kCmc;
  if (name == "cuts") return AlgorithmChoice::kCuts;
  if (name == "cuts+") return AlgorithmChoice::kCutsPlus;
  if (name == "cuts*") return AlgorithmChoice::kCutsStar;
  if (name == "mc2") return AlgorithmChoice::kMc2;
  return std::nullopt;
}

}  // namespace convoy
