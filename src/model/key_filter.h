// KeyFilter: which slice of the shared key space one query consumes. The
// heartbeat loop (engine/engine.cc) fans each shared-stream tuple out to
// every query whose filter matches its key; the single-query engine drives
// one kAll query. The text form (ToString/Parse) belongs to the tenant spec
// grammar and is defined with it in query/multi_query.cc.
#pragma once

#include <cstdint>
#include <string>

#include "common/result.h"
#include "model/tuple.h"

namespace prompt {

/// \brief Which slice of the shared key space a query consumes. Tuples fan
/// out from the shared ingest shards to each query's accumulator through
/// this predicate (kAll duplicates the stream to the query).
struct KeyFilter {
  enum class Kind { kAll, kModulo, kRange };
  Kind kind = Kind::kAll;
  uint64_t modulo = 1;  ///< kModulo: key % modulo == residue
  uint64_t residue = 0;
  uint64_t lo = 0;  ///< kRange: lo <= key <= hi
  uint64_t hi = UINT64_MAX;

  bool Matches(KeyId key) const {
    switch (kind) {
      case Kind::kAll:
        return true;
      case Kind::kModulo:
        return key % modulo == residue;
      case Kind::kRange:
        return key >= lo && key <= hi;
    }
    return true;
  }

  /// "all", "mod:M:R" or "range:LO:HI" (Parse round-trips this).
  std::string ToString() const;
  static Result<KeyFilter> Parse(const std::string& text);
};

}  // namespace prompt
