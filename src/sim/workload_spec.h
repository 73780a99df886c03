#ifndef WPRED_SIM_WORKLOAD_SPEC_H_
#define WPRED_SIM_WORKLOAD_SPEC_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "telemetry/experiment.h"

namespace wpred {

/// Behavioural description of one transaction / query type, the unit the
/// engine simulator executes and the plan synthesizer describes.
struct TxnTypeSpec {
  std::string name;
  /// Relative frequency in the workload mix (weights need not sum to 1).
  double weight = 1.0;
  /// True for insert/update/delete transactions.
  bool is_write = false;
  /// Mean CPU demand per execution at reference core speed, in ms.
  double cpu_ms = 1.0;
  /// Fraction of the CPU demand that parallelises across cores (intra-query
  /// parallelism; ~0 for point transactions, ~0.9 for analytical scans).
  double parallel_fraction = 0.0;
  /// Maximum degree of parallelism the plan can exploit.
  int max_dop = 1;
  /// Logical page accesses per execution (buffer-pool lookups).
  double logical_ios = 1.0;
  /// Rows returned to the client.
  double rows_returned = 1.0;
  /// Rows read internally (scans may read far more than they return).
  double rows_read = 1.0;
  /// Average byte width of returned rows.
  double avg_row_bytes = 100.0;
  /// Cardinality of the dominant table accessed.
  double table_cardinality = 1e6;
  /// Locks acquired per execution (row/page locks; drives LOCK_REQ_ABS).
  double locks_acquired = 0.0;
  /// Sort/hash memory demand in MB; exceeding the grant spills to disk.
  double query_memory_mb = 0.0;
  /// Number of joins in the plan (drives compile cost and plan size).
  int join_count = 0;
};

/// A workload: metadata mirroring paper Table 1 plus the transaction mix.
struct WorkloadSpec {
  std::string name;
  WorkloadType type = WorkloadType::kMixed;
  int tables = 1;
  int columns = 1;
  int indexes = 0;
  /// Scale factor used when sizing the database (paper Section 2.1).
  double scale_factor = 1.0;
  /// Total database size in GB (chosen roughly equal across workloads).
  double db_size_gb = 10.0;
  /// Hot working set in GB; with less memory the buffer pool misses.
  double working_set_gb = 4.0;
  /// Zipf skew of data access (0 = uniform; YCSB uses 0.99).
  double access_skew = 0.0;
  /// Mean client think time between transactions, ms.
  double think_time_ms = 10.0;
  /// If true the workload executes serially regardless of terminals
  /// (TPC-H's behaviour in the paper).
  bool serial_only = false;

  std::vector<TxnTypeSpec> transactions;

  /// Fraction of read-only transactions by weight.
  double ReadOnlyFraction() const;
};

/// Builders for the paper's five standardized benchmarks (Table 1) and the
/// production workload PW. Parameters mirror Table 1 metadata; behavioural
/// numbers are calibrated so workload classes separate the way the paper
/// observes (OLTP lock-heavy, OLAP IO/memory-heavy, YCSB both).
WorkloadSpec MakeTpcC();
WorkloadSpec MakeTpcH();
WorkloadSpec MakeTpcDs();
WorkloadSpec MakeTwitter();
WorkloadSpec MakeYcsb();

/// The mixed decision-support production workload of Section 5.2.3: 500+
/// query types, dominated by simple analytical queries over telemetry data.
WorkloadSpec MakeProductionWorkload();

/// All five standardized benchmark specs.
std::vector<WorkloadSpec> StandardBenchmarks();

/// Looks a builder up by workload name ("TPC-C", "TPC-H", "TPC-DS",
/// "Twitter", "YCSB", "PW").
Result<WorkloadSpec> WorkloadByName(const std::string& name);

}  // namespace wpred

#endif  // WPRED_SIM_WORKLOAD_SPEC_H_
