// Compat, empty: provbench pipeline_bench.cpp:26,438,446-447 still names
// this type; ROADMAP item 9. Similarity classification grows with its
// trials (core::SimilarityClasses) and never poses a pair twice, so
// there is nothing to remember.
#pragma once

namespace provmark::matcher {

/// Compat, unread: provbench pipeline_bench.cpp:438,446-447; ROADMAP item 9.
class SimilarityMemo {};

}  // namespace provmark::matcher
