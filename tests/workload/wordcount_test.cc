#include "workload/wordcount.h"

#include <gtest/gtest.h>

namespace mrperf {
namespace {

TEST(WordCountTest, ProfileIsValid) {
  JobProfile p = WordCountProfile();
  EXPECT_TRUE(p.Validate().ok());
  EXPECT_EQ(p.name, "wordcount");
  EXPECT_TRUE(p.use_combiner);
}

TEST(WordCountTest, CombinerShrinksIntermediateData) {
  JobProfile p = WordCountProfile();
  EXPECT_LT(p.dataflow.combine_size_selectivity, 1.0);
  EXPECT_LT(p.dataflow.combine_record_selectivity, 1.0);
}

TEST(WordCountTest, MapHeavyWorkload) {
  // §5: "map-and-reduce-input heavy jobs ... generate large intermediate
  // data" — map emits about as many bytes as it reads.
  JobProfile p = WordCountProfile();
  EXPECT_GE(p.dataflow.map_size_selectivity, 0.9);
  EXPECT_GT(p.dataflow.map_record_selectivity, 1.0);
}

TEST(PaperClusterTest, MatchesEvaluationSetup) {
  ClusterConfig c = PaperCluster(6);
  EXPECT_EQ(c.num_nodes, 6);
  EXPECT_TRUE(c.Validate().ok());
  // 2x Xeon E5-2630L = 12 physical cores.
  EXPECT_EQ(c.node.cpu_cores, 12);
  EXPECT_EQ(c.node.disks, 1);
}

TEST(PaperHadoopConfigTest, DefaultsMatchPaper) {
  HadoopConfig cfg = PaperHadoopConfig();
  EXPECT_TRUE(cfg.Validate().ok());
  EXPECT_EQ(cfg.block_size_bytes, 128 * kMiB);  // §5.2 default block size
  EXPECT_DOUBLE_EQ(cfg.slowstart_completed_maps, 0.05);
  EXPECT_EQ(cfg.map_priority, 20);
  EXPECT_EQ(cfg.reduce_priority, 10);
}

TEST(PaperHadoopConfigTest, Figure15BlockSize) {
  HadoopConfig cfg = PaperHadoopConfig(64 * kMiB);
  EXPECT_EQ(cfg.block_size_bytes, 64 * kMiB);
  EXPECT_EQ(cfg.NumMapTasks(5 * kGiB), 80);
}

TEST(PaperHadoopConfigTest, SingleMapWaveForPaperWorkloads) {
  // The container sizing must keep every paper workload in one map wave,
  // as the paper's 128 GB nodes do (see PaperHadoopConfig).
  HadoopConfig cfg = PaperHadoopConfig(64 * kMiB);
  const int slots_4_nodes = 4 * cfg.MaxMapsPerNode();
  EXPECT_GE(slots_4_nodes, cfg.NumMapTasks(5 * kGiB));
}

TEST(PaperHadoopConfigTest, ConsistentNodeCapacity) {
  // The analytic model reads capacity from HadoopConfig, the simulator
  // from ClusterConfig; the paper drivers must keep them equal.
  EXPECT_EQ(PaperHadoopConfig().node_capacity_bytes,
            PaperCluster(4).node_capacity_bytes);
}

}  // namespace
}  // namespace mrperf
