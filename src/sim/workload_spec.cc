#include "sim/workload_spec.h"

#include <cmath>

#include "common/string_util.h"

namespace wpred {

double WorkloadSpec::ReadOnlyFraction() const {
  double total = 0.0;
  double read_only = 0.0;
  for (const TxnTypeSpec& t : transactions) {
    total += t.weight;
    if (!t.is_write) read_only += t.weight;
  }
  return total > 0.0 ? read_only / total : 0.0;
}

namespace {

// Deterministic pseudo-variation in [0, 1) used to diversify
// programmatically generated query types (TPC-H/TPC-DS/PW) without pulling
// in an Rng: spec construction must be bit-stable across calls.
double Vary(int i, int salt) {
  uint32_t x = static_cast<uint32_t>(i * 2654435761u + salt * 40503u + 12345u);
  x ^= x >> 13;
  x *= 2246822519u;
  x ^= x >> 11;
  return (x & 0xffffffu) / static_cast<double>(0x1000000u);
}

}  // namespace

WorkloadSpec MakeTpcC() {
  WorkloadSpec w;
  w.name = "TPC-C";
  w.type = WorkloadType::kTransactional;
  w.tables = 9;
  w.columns = 92;
  w.indexes = 1;
  w.scale_factor = 100.0;
  w.db_size_gb = 10.0;
  w.working_set_gb = 6.0;
  w.access_skew = 0.6;
  w.think_time_ms = 8.0;

  TxnTypeSpec new_order{.name = "NewOrder",
                        .weight = 45,
                        .is_write = true,
                        .cpu_ms = 8.0,
                        .logical_ios = 40,
                        .rows_returned = 10,
                        .rows_read = 60,
                        .avg_row_bytes = 220,
                        .table_cardinality = 3.0e7,
                        .locks_acquired = 15,
                        .query_memory_mb = 0.5,
                        .join_count = 2};
  TxnTypeSpec payment{.name = "Payment",
                      .weight = 43,
                      .is_write = true,
                      .cpu_ms = 3.0,
                      .logical_ios = 12,
                      .rows_returned = 1,
                      .rows_read = 5,
                      .avg_row_bytes = 180,
                      .table_cardinality = 3.0e6,
                      .locks_acquired = 6,
                      .query_memory_mb = 0.2,
                      .join_count = 1};
  TxnTypeSpec order_status{.name = "OrderStatus",
                           .weight = 4,
                           .is_write = false,
                           .cpu_ms = 3.0,
                           .logical_ios = 15,
                           .rows_returned = 12,
                           .rows_read = 25,
                           .avg_row_bytes = 160,
                           .table_cardinality = 3.0e6,
                           .locks_acquired = 2,
                           .query_memory_mb = 0.2,
                           .join_count = 1};
  TxnTypeSpec delivery{.name = "Delivery",
                       .weight = 4,
                       .is_write = true,
                       .cpu_ms = 12.0,
                       .logical_ios = 60,
                       .rows_returned = 10,
                       .rows_read = 120,
                       .avg_row_bytes = 120,
                       .table_cardinality = 3.0e7,
                       .locks_acquired = 40,
                       .query_memory_mb = 0.5,
                       .join_count = 2};
  TxnTypeSpec stock_level{.name = "StockLevel",
                          .weight = 4,
                          .is_write = false,
                          .cpu_ms = 8.0,
                          .logical_ios = 80,
                          .rows_returned = 1,
                          .rows_read = 400,
                          .avg_row_bytes = 60,
                          .table_cardinality = 1.0e7,
                          .locks_acquired = 4,
                          .query_memory_mb = 2.0,
                          .join_count = 2};
  w.transactions = {new_order, payment, order_status, delivery, stock_level};
  return w;
}

WorkloadSpec MakeTpcH() {
  WorkloadSpec w;
  w.name = "TPC-H";
  w.type = WorkloadType::kAnalytical;
  w.tables = 8;
  w.columns = 61;
  w.indexes = 23;
  w.scale_factor = 10.0;
  w.db_size_gb = 10.0;
  w.working_set_gb = 9.0;
  w.access_skew = 0.0;
  w.think_time_ms = 0.0;
  w.serial_only = true;  // TPC-H always runs serially in the paper.

  w.transactions.reserve(22);
  for (int q = 1; q <= 22; ++q) {
    TxnTypeSpec t;
    t.name = StrFormat("Q%d", q);
    t.weight = 1.0;
    t.is_write = false;
    // Heavy scan/join/aggregate queries; 0.8–6.5 s of CPU at one core.
    t.cpu_ms = 800.0 + 5700.0 * Vary(q, 1);
    t.parallel_fraction = 0.85 + 0.1 * Vary(q, 2);
    t.max_dop = 16;
    // Large scans: up to most of the 10 GB database (8 KB pages).
    t.logical_ios = 2.0e5 + 8.0e5 * Vary(q, 3);
    t.rows_returned = 1.0 + 180.0 * Vary(q, 4);
    t.rows_read = 5.0e6 + 5.5e7 * Vary(q, 5);
    t.avg_row_bytes = 400.0 + 1200.0 * Vary(q, 6);  // wide aggregate rows
    t.table_cardinality = 6.0e7;                    // lineitem at SF 10
    t.locks_acquired = 0.0;
    // Sort/hash demand: spills on small-memory SKUs.
    t.query_memory_mb = 300.0 + 1700.0 * Vary(q, 7);
    t.join_count = 2 + static_cast<int>(6.0 * Vary(q, 8));
    w.transactions.push_back(t);
  }
  return w;
}

WorkloadSpec MakeTpcDs() {
  WorkloadSpec w;
  w.name = "TPC-DS";
  w.type = WorkloadType::kAnalytical;
  w.tables = 24;
  w.columns = 425;
  w.indexes = 0;
  w.scale_factor = 1.0;
  w.db_size_gb = 3.0;
  w.working_set_gb = 2.5;
  w.access_skew = 0.0;
  w.think_time_ms = 0.0;
  w.serial_only = true;

  w.transactions.reserve(99);
  for (int q = 1; q <= 99; ++q) {
    TxnTypeSpec t;
    t.name = StrFormat("DSQ%d", q);
    t.weight = 1.0;
    t.is_write = false;
    t.cpu_ms = 250.0 + 3500.0 * Vary(q, 11);
    t.parallel_fraction = 0.8 + 0.15 * Vary(q, 12);
    t.max_dop = 16;
    t.logical_ios = 4.0e4 + 3.0e5 * Vary(q, 13);
    t.rows_returned = 10.0 + 400.0 * Vary(q, 14);
    t.rows_read = 1.0e6 + 1.2e7 * Vary(q, 15);
    t.avg_row_bytes = 300.0 + 900.0 * Vary(q, 16);
    t.table_cardinality = 6.0e6;
    t.locks_acquired = 0.0;
    t.query_memory_mb = 100.0 + 900.0 * Vary(q, 17);
    t.join_count = 3 + static_cast<int>(8.0 * Vary(q, 18));
    w.transactions.push_back(t);
  }
  return w;
}

WorkloadSpec MakeTwitter() {
  WorkloadSpec w;
  w.name = "Twitter";
  // 1% writes; the paper classifies Twitter as analytical for all practical
  // purposes because point-lookup reads dominate.
  w.type = WorkloadType::kAnalytical;
  w.tables = 5;
  w.columns = 18;
  w.indexes = 4;
  w.scale_factor = 1600.0;
  w.db_size_gb = 10.0;
  w.working_set_gb = 2.0;
  w.access_skew = 0.8;
  w.think_time_ms = 5.0;

  TxnTypeSpec get_tweet{.name = "GetTweet",
                        .weight = 35,
                        .is_write = false,
                        .cpu_ms = 0.2,
                        .logical_ios = 2,
                        .rows_returned = 1,
                        .rows_read = 1,
                        .avg_row_bytes = 140,
                        .table_cardinality = 2.0e7,
                        .locks_acquired = 1,
                        .query_memory_mb = 0.05,
                        .join_count = 0};
  TxnTypeSpec get_following{.name = "GetTweetsFromFollowing",
                            .weight = 25,
                            .is_write = false,
                            .cpu_ms = 0.8,
                            .logical_ios = 12,
                            .rows_returned = 20,
                            .rows_read = 40,
                            .avg_row_bytes = 140,
                            .table_cardinality = 2.0e7,
                            .locks_acquired = 2,
                            .query_memory_mb = 0.2,
                            .join_count = 1};
  TxnTypeSpec get_followers{.name = "GetFollowers",
                            .weight = 20,
                            .is_write = false,
                            .cpu_ms = 0.5,
                            .logical_ios = 8,
                            .rows_returned = 50,
                            .rows_read = 80,
                            .avg_row_bytes = 40,
                            .table_cardinality = 5.0e7,
                            .locks_acquired = 2,
                            .query_memory_mb = 0.1,
                            .join_count = 1};
  TxnTypeSpec get_user_tweets{.name = "GetUserTweets",
                              .weight = 19,
                              .is_write = false,
                              .cpu_ms = 0.5,
                              .logical_ios = 6,
                              .rows_returned = 20,
                              .rows_read = 30,
                              .avg_row_bytes = 140,
                              .table_cardinality = 2.0e7,
                              .locks_acquired = 2,
                              .query_memory_mb = 0.1,
                              .join_count = 0};
  TxnTypeSpec insert_tweet{.name = "InsertTweet",
                           .weight = 1,
                           .is_write = true,
                           .cpu_ms = 0.4,
                           .logical_ios = 4,
                           .rows_returned = 1,
                           .rows_read = 1,
                           .avg_row_bytes = 140,
                           .table_cardinality = 2.0e7,
                           .locks_acquired = 3,
                           .query_memory_mb = 0.05,
                           .join_count = 0};
  w.transactions = {get_tweet, get_following, get_followers, get_user_tweets,
                    insert_tweet};
  return w;
}

WorkloadSpec MakeYcsb() {
  WorkloadSpec w;
  w.name = "YCSB";
  w.type = WorkloadType::kMixed;
  w.tables = 1;
  w.columns = 11;
  w.indexes = 0;
  w.scale_factor = 3200.0;
  w.db_size_gb = 10.0;
  w.working_set_gb = 8.0;
  w.access_skew = 0.99;  // paper: skew factor 0.99
  w.think_time_ms = 2.0;

  TxnTypeSpec read{.name = "Read",
                   .weight = 30,
                   .is_write = false,
                   .cpu_ms = 0.9,
                   .logical_ios = 4,
                   .rows_returned = 1,
                   .rows_read = 1,
                   .avg_row_bytes = 1100,
                   .table_cardinality = 3.2e7,
                   .locks_acquired = 1,
                   .query_memory_mb = 0.05,
                   .join_count = 0};
  TxnTypeSpec scan{.name = "Scan",
                   .weight = 10,
                   .is_write = false,
                   .cpu_ms = 3.6,
                   .logical_ios = 50,  // no index: range scans read widely
                   .rows_returned = 50,
                   .rows_read = 900,
                   .avg_row_bytes = 1100,
                   .table_cardinality = 3.2e7,
                   .locks_acquired = 2,
                   .query_memory_mb = 8.0,
                   .join_count = 0};
  TxnTypeSpec insert{.name = "Insert",
                     .weight = 15,
                     .is_write = true,
                     .cpu_ms = 1.2,
                     .logical_ios = 6,
                     .rows_returned = 1,
                     .rows_read = 1,
                     .avg_row_bytes = 1100,
                     .table_cardinality = 3.2e7,
                     .locks_acquired = 4,
                     .query_memory_mb = 0.05,
                     .join_count = 0};
  TxnTypeSpec update{.name = "Update",
                     .weight = 25,
                     .is_write = true,
                     .cpu_ms = 1.2,
                     .logical_ios = 5,
                     .rows_returned = 1,
                     .rows_read = 1,
                     .avg_row_bytes = 1100,
                     .table_cardinality = 3.2e7,
                     .locks_acquired = 4,
                     .query_memory_mb = 0.05,
                     .join_count = 0};
  TxnTypeSpec remove{.name = "Delete",
                     .weight = 5,
                     .is_write = true,
                     .cpu_ms = 1.2,
                     .logical_ios = 5,
                     .rows_returned = 1,
                     .rows_read = 1,
                     .avg_row_bytes = 1100,
                     .table_cardinality = 3.2e7,
                     .locks_acquired = 4,
                     .query_memory_mb = 0.05,
                     .join_count = 0};
  TxnTypeSpec rmw{.name = "ReadModifyWrite",
                  .weight = 15,
                  .is_write = true,
                  .cpu_ms = 2.1,
                  .logical_ios = 8,
                  .rows_returned = 1,
                  .rows_read = 2,
                  .avg_row_bytes = 1100,
                  .table_cardinality = 3.2e7,
                  .locks_acquired = 5,
                  .query_memory_mb = 0.05,
                  .join_count = 0};
  w.transactions = {read, scan, insert, update, remove, rmw};
  return w;
}

WorkloadSpec MakeProductionWorkload() {
  WorkloadSpec w;
  w.name = "PW";
  w.type = WorkloadType::kMixed;
  // Table 1 lists the PW schema as undisclosed; the simulator still needs
  // plausible structure for plan synthesis.
  w.tables = 40;
  w.columns = 600;
  w.indexes = 30;
  w.scale_factor = 1.0;
  w.db_size_gb = 12.0;
  w.working_set_gb = 6.0;
  w.access_skew = 0.3;
  w.think_time_ms = 2.0;

  // 520 query types: dominated by simple analytical queries over telemetry
  // tables (Section 5.2.3 confirms PW aligns with TPC-H), plus a small
  // ingest tail of writes.
  w.transactions.reserve(520);
  for (int q = 0; q < 470; ++q) {
    TxnTypeSpec t;
    t.name = StrFormat("PWQ%d", q);
    t.weight = 0.9 + 0.3 * Vary(q, 21);
    t.is_write = false;
    // Simple analytical scans/aggregations over telemetry tables; the
    // profile sits in TPC-H's range (fewer joins, smaller scans) rather
    // than TPC-DS's (wide star-schema plans) or Twitter's (point lookups),
    // which is what Section 5.2.3's manual inspection found.
    t.cpu_ms = 700.0 + 4800.0 * Vary(q, 22);
    t.parallel_fraction = 0.82 + 0.12 * Vary(q, 23);
    t.max_dop = 16;
    t.logical_ios = 1.8e5 + 7.0e5 * Vary(q, 24);
    t.rows_returned = 1.0 + 170.0 * Vary(q, 25);
    t.rows_read = 5.0e6 + 4.5e7 * Vary(q, 26);
    t.avg_row_bytes = 400.0 + 1100.0 * Vary(q, 27);
    t.table_cardinality = 5.0e7;
    t.locks_acquired = 0.0;
    t.query_memory_mb = 280.0 + 1500.0 * Vary(q, 28);
    t.join_count = 2 + static_cast<int>(5.0 * Vary(q, 29));
    w.transactions.push_back(t);
  }
  for (int q = 0; q < 50; ++q) {
    TxnTypeSpec t;
    t.name = StrFormat("PWIngest%d", q);
    t.weight = 0.8;
    t.is_write = true;
    t.cpu_ms = 1.0 + 4.0 * Vary(q, 31);
    t.logical_ios = 10.0 + 40.0 * Vary(q, 32);
    t.rows_returned = 1.0;
    t.rows_read = 10.0 + 100.0 * Vary(q, 33);
    t.avg_row_bytes = 300.0;
    t.table_cardinality = 2.0e7;
    t.locks_acquired = 5.0 + 10.0 * Vary(q, 34);
    t.query_memory_mb = 0.5;
    t.join_count = 0;
    w.transactions.push_back(t);
  }
  return w;
}

std::vector<WorkloadSpec> StandardBenchmarks() {
  return {MakeTpcC(), MakeTpcH(), MakeTpcDs(), MakeTwitter(), MakeYcsb()};
}

Result<WorkloadSpec> WorkloadByName(const std::string& name) {
  if (name == "TPC-C") return MakeTpcC();
  if (name == "TPC-H") return MakeTpcH();
  if (name == "TPC-DS") return MakeTpcDs();
  if (name == "Twitter") return MakeTwitter();
  if (name == "YCSB") return MakeYcsb();
  if (name == "PW") return MakeProductionWorkload();
  return Status::NotFound("unknown workload: " + name);
}

}  // namespace wpred
