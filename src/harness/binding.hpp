// The parameter-binding table: one validated path from string key=value
// pairs (CLI args, sweep axes, config files) to ExperimentConfig fields.
//
// Every bench used to hand-roll its own Config::get_or calls, which meant
// a typo'd key was a silent no-op and every binary invented its own key
// names. Here each key is declared once with a typed, range-checked setter
// and a canonical getter; unknown keys and malformed or out-of-range
// values are errors the caller must surface.
#pragma once

#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/config.hpp"
#include "core/experiment.hpp"

namespace fairswap::harness {

/// One bound key. `set` applies a string value (returns an error message,
/// empty on success, and leaves the config untouched on failure); `get`
/// renders the field's current value in the same format `set` accepts.
struct Binding {
  std::string key;
  std::string description;
  std::string (*set)(core::ExperimentConfig&, const std::string&);
  std::string (*get)(const core::ExperimentConfig&);
  /// True for keys that only shape workload *generation* (files,
  /// originators, chunk ranges, ...). A replayed trace ignores them, so
  /// the sweep expansion rejects such keys as axes next to trace_in —
  /// deriving that guard from the table keeps future generator knobs
  /// covered by construction.
  bool workload_generation{false};
};

/// The registry of every bindable experiment parameter.
class BindingTable {
 public:
  /// The canonical table covering every ExperimentConfig knob the benches
  /// and scenarios use (nodes, bits, k, files, originators, free_riders,
  /// caching, seed, ...).
  [[nodiscard]] static const BindingTable& instance();

  [[nodiscard]] const std::vector<Binding>& bindings() const noexcept {
    return bindings_;
  }

  [[nodiscard]] const Binding* find(const std::string& key) const;

  /// Applies one key=value; returns an error message ("" on success).
  /// Unknown keys are errors, not silent no-ops.
  [[nodiscard]] std::string apply(core::ExperimentConfig& cfg,
                                  const std::string& key,
                                  const std::string& value) const;

  /// Applies every entry of `args` except the keys listed in `reserved`
  /// (CLI control keys like out/seeds/threads that are not experiment
  /// parameters). Returns all errors; the config reflects the keys that
  /// applied cleanly.
  [[nodiscard]] std::vector<std::string> apply_all(
      core::ExperimentConfig& cfg, const Config& args,
      std::span<const std::string> reserved = {}) const;

  /// The full key=value snapshot of a config, one pair per binding in
  /// table order. apply()ing a snapshot onto a default config reproduces
  /// the config (the round-trip property the binding tests pin down).
  [[nodiscard]] std::vector<std::pair<std::string, std::string>> snapshot(
      const core::ExperimentConfig& cfg) const;

 private:
  BindingTable();

  std::vector<Binding> bindings_;
};

/// Cross-field validation a per-key setter cannot do (node count vs
/// address-space size, chunk range ordering, SWAP threshold ordering).
/// Returns an error message, empty when the config is coherent.
[[nodiscard]] std::string validate(const core::ExperimentConfig& cfg);

}  // namespace fairswap::harness
