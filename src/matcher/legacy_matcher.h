// The pre-interning (string-keyed) matching engine, kept as a reference
// baseline with its historical PropertyCost candidate order.
//
// The production engine in matcher.h was rewritten to run on the interned
// CompactGraph representation with the WL-scarcity search order; this is
// the implementation it replaced. matcher_compact_equivalence_test
// asserts the production engine agrees with it on feasibility, optimal
// cost and budget exhaustion, on random graphs under every cost model
// and on the provenance-spine graphs (p=4 and p=8, isomorphism and
// embedding) that are too big for brute_force; matcher_ordering_test
// compares step counts against it.
//
// Like brute_force.h, nothing in the pipeline should call this. It is
// compiled into the test-only provmark_legacy archive, not into the
// provmark library.
#pragma once

#include <optional>

#include "matcher/matcher.h"

namespace provmark::matcher::legacy {

/// Listing 3 semantics; same optimal cost as matcher::best_isomorphism.
std::optional<Matching> best_isomorphism(const graph::PropertyGraph& g1,
                                         const graph::PropertyGraph& g2,
                                         const SearchOptions& options = {},
                                         Stats* stats = nullptr);

/// Listing 4 semantics; same optimal cost as
/// matcher::best_subgraph_embedding.
std::optional<Matching> best_subgraph_embedding(
    const graph::PropertyGraph& g1, const graph::PropertyGraph& g2,
    const SearchOptions& options = {}, Stats* stats = nullptr);

}  // namespace provmark::matcher::legacy
