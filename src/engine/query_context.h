// Compatibility alias: the per-worker query context is PathEnumerator itself
// (core/path_enum.h), whose Run takes the cache and span directly. Kept only
// for code that still spells the old name; new code uses PathEnumerator.
#ifndef PATHENUM_ENGINE_QUERY_CONTEXT_H_
#define PATHENUM_ENGINE_QUERY_CONTEXT_H_

#include "core/path_enum.h"

namespace pathenum {

class QueryContext : public PathEnumerator {
 public:
  using PathEnumerator::PathEnumerator;

  QueryStats RunCached(const Query& q, PathSink& sink, const EnumOptions& opts,
                       IndexCache* cache, obs::QuerySpan* span = nullptr) {
    return Run(q, sink, opts, cache, span);
  }
};

}  // namespace pathenum

#endif  // PATHENUM_ENGINE_QUERY_CONTEXT_H_
