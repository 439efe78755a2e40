/// \file wordcount.h
/// \brief The paper's evaluation workload: WordCount from the Hadoop
/// distribution (§5: "map-and-reduce-input heavy jobs that process large
/// amounts of input data and also generate large intermediate data").
///
/// Since the cluster simulator (sim/cluster_sim.h) stands in for the
/// physical testbed, this module provides calibrated dataflow/cost profiles
/// and cluster/Hadoop configurations whose simulated response times land in
/// the paper's reported ranges (tens of seconds for 1 GB × 1 job up to
/// ~20 minutes for 5 GB × 4 jobs on 4 nodes).

#pragma once

#include <cstdint>

#include "hadoop/config.h"
#include "hadoop/job_profile.h"

namespace mrperf {

/// \brief WordCount dataflow/cost profile (combiner enabled, as in the
/// stock Hadoop example).
JobProfile WordCountProfile();

/// \brief TeraSort-style profile: identity map and reduce, no combiner —
/// the shuffle moves the full input volume, making the job
/// shuffle/IO-bound (the "map-and-reduce-input heavy" extreme of the
/// Shi et al. taxonomy the paper cites [8]).
JobProfile TeraSortProfile();

/// \brief Grep-style profile: highly selective map (few matches), trivial
/// reduce — map-input heavy with negligible intermediate data.
JobProfile GrepProfile(double match_fraction = 0.01);

/// \brief Inverted-index-style profile: map emits more bytes than it
/// reads (term expansion), aggressive combining, string-heavy CPU costs.
JobProfile InvertedIndexProfile();

/// \brief Node hardware approximating the paper's testbed nodes
/// (2× Xeon E5-2630L, 1 SATA disk, gigabit Ethernet). Disk rates are
/// effective HDFS throughputs (checksums, seeks under concurrency), not
/// raw device speeds.
NodeHardware PaperNodeHardware();

/// \brief Cluster of `num_nodes` paper-testbed nodes.
ClusterConfig PaperCluster(int num_nodes);

/// \brief Hadoop 2.x configuration used in the evaluation: the given block
/// size (128 MB default, 64 MB for the Figure 15 experiment), `reducers`
/// reduce tasks, 2 GB containers on 64 GB NodeManagers (32 containers per
/// node — the paper's 128 GB nodes run all of a job's maps in one wave),
/// slow start at 5%.
HadoopConfig PaperHadoopConfig(int64_t block_size_bytes = 128 * kMiB,
                               int reducers = 2);

}  // namespace mrperf
