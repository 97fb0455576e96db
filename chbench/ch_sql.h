// SQL text for the CH workload's generated statements.
//
// workload/ch builds TPC-C and CH-H statements as engine Query objects.
// The benchmark sends them to hd_server as SQL in the dialect of
// sql/parser.h, so every statement pays the wire, parse and plan costs an
// application would. RenderSql is the inverse of ParseSql over the shapes
// the generator emits; ch_bench_test checks that the rendered text parses
// and returns the generator's rows.
//
// Nearest forms, where the grammar cannot say exactly what the Query says:
//   - aggregate labels ("sum_qty") are not expressible; the parser labels
//     aggregates by function name. Labels do not change result rows.
//   - DATE values are rendered as their day number; the parser reads an
//     integer literal and the executor packs it into the DATE column.
//   - a range with one exclusive bound renders as two comparisons.
#pragma once

#include <string>

#include "catalog/database.h"
#include "exec/query.h"

namespace chbench {

/// Render `q` as one statement of the sql/parser.h dialect. Column names
/// are qualified with their table so joins never resolve ambiguously.
std::string RenderSql(const hd::Database& db, const hd::Query& q);

/// Literal text for `v`: integers as-is, doubles with round-trip precision
/// and a decimal point, strings single-quoted.
std::string RenderLiteral(const hd::Value& v);

}  // namespace chbench
