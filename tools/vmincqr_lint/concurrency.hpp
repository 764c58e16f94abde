// Concurrency & determinism rules (part of the per-TU pass).
//
// PR 5 made the hot paths parallel and proved bit-exact thread-count
// invariance *dynamically* (the invariance battery + the 8-thread TSan job).
// Nothing in that battery stops a later change from reintroducing a racy or
// schedule-dependent construct that only misbehaves on an unexercised
// interleaving. These rules enforce the src/parallel/ determinism contract
// (DESIGN.md §8) statically, at lint time:
//
//   * shared-mutable-capture  — a by-reference capture written inside a
//     parallel body without per-chunk indexing: concurrent chunks race.
//   * nondeterministic-reduce — accumulation (`+=`, `++`, ...) into a
//     by-reference capture inside a parallel body: even if atomically safe,
//     the combine order would depend on thread scheduling; reductions must
//     go through parallel_deterministic_reduce's fixed-order combine.
//   * rng-in-parallel         — an RNG constructed or drawn inside a
//     parallel body without per-chunk seeding: the stream order becomes a
//     function of the schedule.
//   * unordered-iteration     — iterating std::unordered_{map,set}: the
//     iteration order is implementation- and hash-seed-dependent, so any
//     reduction or serialization fed from it is not reproducible.
//   * clock-in-hot-path       — wall-clock reads outside bench/ and tools/:
//     timing must never steer library results.
//   * atomic-outside-parallel — <atomic>/<mutex>-family includes or
//     unqualified atomic uses leaking past the raw-thread rule (which only
//     sees `std::`-qualified names).
//
// The first three work on a lightweight lambda/capture parse layered on the
// token stream: each parallel_for / parallel_deterministic_reduce /
// for_each_chunk / parallel_map call site yields (capture list, parameter
// list, body range), and a conservative local-variable scan decides which
// written names are chunk-local. Like the dataflow rules this is token-level
// and deliberately conservative; false positives are silenced per line with
// `// vmincqr-lint: allow(<rule>)` plus a justification.
#pragma once

#include <string>
#include <vector>

#include "diagnostic.hpp"
#include "token.hpp"

namespace vmincqr::lint {

/// Runs the six concurrency rules over one TU. `path` is used for
/// diagnostics and for the path-scoped exemptions (bench/ and tools/ may
/// read clocks; src/parallel/ may use atomics). Suppressions are NOT applied
/// here (the caller folds these findings into the per-file allow() pass).
std::vector<Diagnostic> concurrency_rules(const std::string& path,
                                          const Unit& unit);

/// A parallel-body region extracted from a launcher call site:
/// `parallel_for(n, grain, [captures](params) { body })` and friends.
/// Exposed for the call-graph pass, which needs the same body spans.
struct ParallelBody {
  std::string launcher;       // parallel_for, parallel_map, ...
  std::size_t intro;          // token index of the capture-list '['
  std::size_t body_first;     // token index of the body '{'
  std::size_t body_last;      // token index of the matching '}'
  bool default_ref = false;   // [&]
  bool default_val = false;   // [=]
  bool captures_this = false;
  std::vector<std::string> by_ref;   // [&name] captures
  std::vector<std::string> by_val;   // [name] and [name = expr] captures
  std::vector<std::string> params;   // lambda parameters (chunk begin/end)
};

/// Extracts every parallel body in the token stream. For
/// parallel_deterministic_reduce only the map-chunk lambda (the first one)
/// is a parallel region — the combine lambda runs sequentially in chunk
/// order by contract.
std::vector<ParallelBody> find_parallel_bodies(const std::vector<Token>& t);

}  // namespace vmincqr::lint
