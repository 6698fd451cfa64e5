// Multi-tenant query specs — the front door of the tenant subsystem
// (src/tenant/): one spec line per tenant, each carrying the tenant's
// weight, partitioning technique (or adaptive ladder), key filter and the
// declarative query text parser.h compiles. promptctl --queries=<file>
// loads one of these files and hands the specs to the MultiTenantEngine.
//
//   spec file := { line }
//   line      := '#' comment | blank |
//                TENANT id [WEIGHT n] [TECHNIQUE name]
//                [ADAPTIVE [ADAPT_D n] [CANDIDATES name,name,...]]
//                [KEYS filter] QUERY <query text>
//   filter    := all | mod:<M>:<R> | range:<LO>:<HI>
//
// Keywords are case-insensitive; ids, technique names and the query text
// keep their case. Example:
//
//   TENANT calm  WEIGHT 1 TECHNIQUE Hash KEYS mod:2:0 QUERY SELECT COUNT WINDOW 8S
//   TENANT noisy WEIGHT 3 ADAPTIVE CANDIDATES Hash,Prompt KEYS mod:2:1 QUERY SELECT COUNT WINDOW 8S
#pragma once

#include <string>
#include <vector>

#include "baselines/factory.h"
#include "common/result.h"
#include "model/key_filter.h"
#include "query/parser.h"
#include "query/query.h"

namespace prompt {

/// \brief One tenant's complete serving spec.
struct TenantQuerySpec {
  std::string id;
  uint32_t weight = 1;
  /// Static technique, or the adaptive ladder's initial rung.
  PartitionerType technique = PartitionerType::kPrompt;
  bool adaptive = false;
  /// Hysteresis depth (AdaptiveOptions::d); only meaningful when adaptive.
  int adapt_d = 3;
  /// Adaptive candidate ladder; empty = the AdaptiveOptions default.
  std::vector<PartitionerType> adapt_candidates;
  KeyFilter filter;
  CompiledQuery query;
};

/// \brief The AdaptiveOptions default candidate ladder (what an adaptive
/// spec without a CANDIDATES clause runs).
std::vector<PartitionerType> AdaptiveOptionsDefaultLadder();

/// \brief Serializes a spec back to its one-line text form; ParseQueryFile
/// round-trips it (the parser tests' invariant).
std::string TenantSpecLine(const TenantQuerySpec& spec);

/// \brief Parses a multi-query spec file (text contents). Rejects duplicate
/// tenant ids, zero or negative weights, unknown techniques/filters,
/// adaptive ladders missing the initial technique, and tenants whose SLIDE
/// differs (the slide is the shared heartbeat every tenant's window rides).
Result<std::vector<TenantQuerySpec>> ParseQueryFile(const std::string& text);

/// \brief ParseQueryFile over a file path.
Result<std::vector<TenantQuerySpec>> LoadQueryFile(const std::string& path);

}  // namespace prompt
