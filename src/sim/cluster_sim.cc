#include "sim/cluster_sim.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <deque>
#include <map>

#include "common/logging.h"

namespace mrperf {
namespace {

enum class Res { kCpu = 0, kDisk = 1, kNet = 2 };

struct Phase {
  Res res;
  double demand;
};

}  // namespace

double SimResult::MeanJobResponse() const {
  if (job_response_times.empty()) return 0.0;
  double sum = 0.0;
  for (double r : job_response_times) sum += r;
  return sum / static_cast<double>(job_response_times.size());
}

struct ClusterSimulator::Impl {
  // ----- static configuration ------------------------------------------
  ClusterConfig cluster;
  SimOptions options;

  // ----- simulation state ----------------------------------------------
  EventQueue queue;
  Rng rng;
  std::vector<NodeState> nodes;
  // Per node: [cpu, disk, net] processor-sharing stations.
  std::vector<std::array<std::unique_ptr<PsResource>, 3>> stations;
  std::unique_ptr<SchedulerInterface> scheduler;

  struct ReduceShuffleState {
    bool active = false;
    int segments_fetched = 0;
    int active_fetches = 0;
    std::deque<int> ready_segments;  // map indexes whose output awaits fetch
    bool post_started = false;
  };

  struct RunningTask {
    int job = -1;
    int index = -1;  // AM task index
    TaskType type = TaskType::kMap;
    int node = -1;
    Container container;
    double noise = 1.0;
    std::deque<Phase> phases;  // remaining phases (maps + reduce tail)
    TaskRecord record;
    ReduceShuffleState shuffle;
  };

  struct Job {
    SimJobSpec spec;
    std::unique_ptr<AppMaster> am;
    std::unique_ptr<HerodotouModel> model;
    MapTaskCost map_cost;
    ReduceTaskCost reduce_cost;
    int64_t map_output_bytes = 0;  // per map task, post combine/compress
    int am_node = -1;
    Resource am_capability;
    bool am_live = false;
    bool finished = false;
    double submit_time = 0.0;
    double end_time = 0.0;
    // Map completion bookkeeping for shuffle pipelining.
    std::vector<bool> map_done;
    std::vector<int> map_node;  // node each map ran on
    // Reduce tasks currently shuffling (keyed by AM task index).
    std::vector<int64_t> shuffling_tasks;  // RunningTask ids
  };

  std::vector<Job> jobs;
  std::map<int64_t, RunningTask> running;  // keyed by internal task id
  int64_t next_task_id = 0;
  bool heartbeat_scheduled = false;
  int jobs_remaining = 0;
  std::vector<TaskRecord> finished_tasks;
  Status failure = Status::OK();

  Impl(ClusterConfig c, SimOptions o) : cluster(c), options(o), rng(o.seed) {}

  void Fail(const Status& st) {
    if (failure.ok()) failure = st;
  }

  PsResource& StationOf(int node, Res r) {
    return *stations[node][static_cast<size_t>(r)];
  }

  // ---- setup -----------------------------------------------------------
  Status Init() {
    MRPERF_RETURN_NOT_OK(cluster.Validate());
    switch (options.scheduler) {
      case SchedulerKind::kCapacityFifo:
        scheduler = std::make_unique<CapacityScheduler>();
        break;
      case SchedulerKind::kTetrisPacking:
        scheduler = std::make_unique<TetrisScheduler>();
        break;
    }
    nodes.clear();
    stations.clear();
    const int total_nodes = cluster.TotalNodes();
    for (int i = 0; i < total_nodes; ++i) {
      // Mixed-capacity clusters: each node advertises its group's
      // capacity, and its PS-CPU station concurrency follows the
      // advertised vcores (uniform clusters keep node.cpu_cores).
      const Resource capacity = cluster.NodeCapacity(i);
      nodes.emplace_back(i, capacity);
      std::array<std::unique_ptr<PsResource>, 3> st;
      st[0] = std::make_unique<PsResource>(&queue, capacity.vcores);
      st[1] = std::make_unique<PsResource>(&queue, cluster.node.disks);
      st[2] = std::make_unique<PsResource>(&queue, 1);
      stations.push_back(std::move(st));
    }
    return Status::OK();
  }

  // ---- job submission ---------------------------------------------------
  Status Submit(SimJobSpec spec) {
    MRPERF_RETURN_NOT_OK(spec.config.Validate());
    MRPERF_RETURN_NOT_OK(spec.profile.Validate());
    if (spec.input_bytes <= 0) {
      return Status::InvalidArgument("input_bytes must be positive");
    }
    if (spec.submit_time < 0) {
      return Status::InvalidArgument("submit_time must be >= 0");
    }
    Job job;
    job.spec = std::move(spec);
    job.submit_time = job.spec.submit_time;
    job.model = std::make_unique<HerodotouModel>(cluster, job.spec.config,
                                                 job.spec.profile);
    const int num_maps = job.spec.config.NumMapTasks(job.spec.input_bytes);
    const int num_reduces = job.spec.config.num_reducers;
    if (num_maps == 0) {
      return Status::InvalidArgument("job has no map tasks");
    }

    const int64_t split = std::min<int64_t>(job.spec.input_bytes,
                                            job.spec.config.block_size_bytes);
    MRPERF_ASSIGN_OR_RETURN(job.map_cost, job.model->CostMapTask(split));
    job.map_output_bytes = job.map_cost.output_bytes;
    const int total_nodes = cluster.TotalNodes();
    // A container that fits no node is never granted: the job would wait
    // for it until max_sim_time.
    int64_t largest_node = 0;
    for (int i = 0; i < total_nodes; ++i) {
      largest_node =
          std::max(largest_node, cluster.NodeCapacity(i).memory_bytes);
    }
    const int64_t container = std::max(job.spec.config.map_container_bytes,
                                       job.spec.config.reduce_container_bytes);
    if (container > largest_node) {
      return Status::InvalidArgument("no node can hold the job's containers");
    }
    if (num_reduces > 0) {
      // Placement-independent parts only; the shuffle itself is simulated
      // segment-by-segment, so remote_fraction here only sets the record's
      // nominal demand split and is refined at fetch time.
      const double remote_fraction =
          total_nodes > 1 ? 1.0 - 1.0 / total_nodes : 0.0;
      MRPERF_ASSIGN_OR_RETURN(
          job.reduce_cost,
          job.model->CostReduceTask(job.map_output_bytes * num_maps,
                                    num_reduces, remote_fraction));
    }

    AmPlan plan;
    plan.num_maps = num_maps;
    plan.num_reduces = num_reduces;
    plan.map_capability =
        Resource{job.spec.config.map_container_bytes, 1};
    plan.reduce_capability =
        Resource{job.spec.config.reduce_container_bytes, 1};
    // Input splits spread uniformly over nodes (HDFS default placement).
    plan.map_preferred_nodes.resize(num_maps);
    for (int i = 0; i < num_maps; ++i) {
      plan.map_preferred_nodes[i] = i % total_nodes;
    }
    const int64_t app_id = static_cast<int64_t>(jobs.size());
    job.am = std::make_unique<AppMaster>(app_id, plan, job.spec.config);
    job.am_capability = Resource{job.spec.config.map_container_bytes, 1};
    job.map_done.assign(num_maps, false);
    job.map_node.assign(num_maps, -1);
    jobs.push_back(std::move(job));
    ++jobs_remaining;
    return Status::OK();
  }

  void ScheduleSubmissions() {
    for (size_t j = 0; j < jobs.size(); ++j) {
      (void)queue.ScheduleAt(jobs[j].submit_time,
                             [this, j]() { StartJob(static_cast<int>(j)); });
    }
  }

  void StartJob(int j) {
    Job& job = jobs[j];
    // The AM Service negotiates the first container for the AM (§3.2):
    // place it on the least-occupied node that fits.
    NodeState* target = nullptr;
    double best = 2.0;
    for (auto& node : nodes) {
      if (!node.CanFit(job.am_capability)) continue;
      if (node.OccupancyRate() < best) {
        best = node.OccupancyRate();
        target = &node;
      }
    }
    if (target == nullptr) {
      // No room for the AM yet; retry on the next heartbeat tick.
      (void)queue.ScheduleAfter(options.heartbeat_sec,
                                [this, j]() { StartJob(j); });
      return;
    }
    Status st = target->Allocate(job.am_capability);
    if (!st.ok()) {
      Fail(st);
      return;
    }
    job.am_node = target->id();
    st = scheduler->RegisterApplication(job.am->app_id());
    if (!st.ok()) {
      Fail(st);
      return;
    }
    (void)queue.ScheduleAfter(options.am_startup_sec, [this, j]() {
      jobs[j].am_live = true;
      EnsureHeartbeat();
    });
  }

  // ---- RM heartbeat -----------------------------------------------------
  void EnsureHeartbeat() {
    if (heartbeat_scheduled) return;
    heartbeat_scheduled = true;
    (void)queue.ScheduleAfter(0.0, [this]() { Heartbeat(); });
  }

  void Heartbeat() {
    if (!failure.ok()) {
      heartbeat_scheduled = false;
      return;
    }
    // Collect AM demand (in submission order; the scheduler enforces its
    // own cross-application policy).
    for (auto& job : jobs) {
      if (!job.am_live || job.finished) continue;
      auto reqs = job.am->BuildRequests();
      if (!reqs.empty()) {
        Status st = scheduler->SubmitRequests(job.am->app_id(), reqs);
        if (!st.ok()) {
          Fail(st);
          return;
        }
      }
      // Remaining-work hint for SRTF-style policies: incomplete tasks
      // weighted by the static per-task cost.
      const int total_tasks =
          static_cast<int>(job.am->tasks().size());
      const int done = job.am->CompletedMaps() + job.am->CompletedReduces();
      const double remaining =
          std::max(1, total_tasks - done) * job.map_cost.TotalSeconds();
      (void)scheduler->SetRemainingWorkHint(job.am->app_id(), remaining);
    }
    auto granted = scheduler->Assign(nodes);
    if (!granted.ok()) {
      Fail(granted.status());
      return;
    }
    for (const auto& container : *granted) {
      LaunchContainer(container);
    }
    if (jobs_remaining > 0) {
      (void)queue.ScheduleAfter(options.heartbeat_sec,
                                [this]() { Heartbeat(); });
    } else {
      heartbeat_scheduled = false;
    }
  }

  // ---- container / task execution ---------------------------------------
  void LaunchContainer(const Container& container) {
    Job& job = jobs[static_cast<size_t>(container.app_id)];
    auto assigned = job.am->AssignContainer(container);
    if (!assigned.ok()) {
      // Demand raced with completions; release the container.
      Status st = nodes[container.node].Release(container.capability);
      if (!st.ok()) Fail(st);
      return;
    }
    const int task_index = *assigned;
    const int64_t id = next_task_id++;
    RunningTask task;
    task.job = static_cast<int>(container.app_id);
    task.index = task_index;
    task.type = container.requested_type;
    task.node = container.node;
    task.container = container;
    task.noise = rng.LogNormalMeanCv(1.0, options.task_cv);
    task.record.job = task.job;
    task.record.task_index = task_index;
    task.record.type = task.type;
    task.record.node = task.node;
    running.emplace(id, std::move(task));
    (void)queue.ScheduleAfter(options.container_launch_sec,
                              [this, id]() { BeginTask(id); });
  }

  void AddPhase(RunningTask& task, Res res, double base_demand) {
    const double d = base_demand * task.noise;
    if (d <= 0) return;
    task.phases.push_back(Phase{res, d});
    switch (res) {
      case Res::kCpu:
        task.record.cpu_demand += d;
        break;
      case Res::kDisk:
        task.record.disk_demand += d;
        break;
      case Res::kNet:
        task.record.network_demand += d;
        break;
    }
  }

  void BeginTask(int64_t id) {
    auto it = running.find(id);
    if (it == running.end()) return;
    RunningTask& task = it->second;
    Job& job = jobs[task.job];
    task.record.start = queue.Now();

    if (task.type == TaskType::kMap) {
      job.map_node[task.index] = task.node;
      const MapTaskCost& mc = job.map_cost;
      AddPhase(task, Res::kCpu, mc.read.cpu);  // startup
      AddPhase(task, Res::kDisk, mc.read.disk);
      AddPhase(task, Res::kCpu, mc.map.cpu);
      AddPhase(task, Res::kCpu, mc.collect.cpu);
      AddPhase(task, Res::kCpu, mc.spill.cpu);
      AddPhase(task, Res::kDisk, mc.spill.disk);
      AddPhase(task, Res::kCpu, mc.merge.cpu);
      AddPhase(task, Res::kDisk, mc.merge.disk);
      RunNextPhase(id);
    } else {
      // Reduce: startup, then the segment-driven shuffle.
      AddPhase(task, Res::kCpu, job.reduce_cost.shuffle.cpu);  // startup
      task.shuffle.active = true;
      job.shuffling_tasks.push_back(id);
      // Seed with all maps that already finished.
      const int num_maps = static_cast<int>(job.map_done.size());
      for (int m = 0; m < num_maps; ++m) {
        if (job.map_done[m]) task.shuffle.ready_segments.push_back(m);
      }
      RunNextPhase(id);  // run the startup phase; fetches start after it
    }
  }

  void RunNextPhase(int64_t id) {
    auto it = running.find(id);
    if (it == running.end()) return;
    RunningTask& task = it->second;
    if (task.phases.empty()) {
      if (task.type == TaskType::kReduce && task.shuffle.active) {
        // Startup done; begin fetching.
        TryLaunchFetches(id);
        return;
      }
      FinishTask(id);
      return;
    }
    const Phase ph = task.phases.front();
    task.phases.pop_front();
    const int node = task.node;
    Status st = StationOf(node, ph.res)
                    .Submit(ph.demand, [this, id, ph](double elapsed) {
                      OnPhaseDone(id, ph.res, elapsed);
                    });
    if (!st.ok()) Fail(st);
  }

  void OnPhaseDone(int64_t id, Res res, double elapsed) {
    auto it = running.find(id);
    if (it == running.end()) return;
    RunningTask& task = it->second;
    switch (res) {
      case Res::kCpu:
        task.record.cpu_residence += elapsed;
        break;
      case Res::kDisk:
        task.record.disk_residence += elapsed;
        break;
      case Res::kNet:
        task.record.network_residence += elapsed;
        break;
    }
    RunNextPhase(id);
  }

  // ---- shuffle ------------------------------------------------------------
  void TryLaunchFetches(int64_t id) {
    auto it = running.find(id);
    if (it == running.end()) return;
    RunningTask& task = it->second;
    Job& job = jobs[task.job];
    const int num_maps = static_cast<int>(job.map_done.size());
    const int parallel = job.spec.config.shuffle_parallel_copies;

    while (task.shuffle.active && task.shuffle.active_fetches < parallel &&
           !task.shuffle.ready_segments.empty()) {
      const int m = task.shuffle.ready_segments.front();
      task.shuffle.ready_segments.pop_front();
      ++task.shuffle.active_fetches;
      LaunchFetch(id, m);
    }
    // All segments fetched and the map stage is over -> move to the tail.
    if (task.shuffle.active && task.shuffle.segments_fetched == num_maps &&
        task.shuffle.active_fetches == 0) {
      task.shuffle.active = false;
      task.record.shuffle_end = queue.Now();
      StartReduceTail(id);
    }
  }

  void LaunchFetch(int64_t id, int map_index) {
    auto it = running.find(id);
    if (it == running.end()) return;
    RunningTask& task = it->second;
    Job& job = jobs[task.job];
    const auto& hw = cluster.node;
    const int num_reduces = std::max(1, job.spec.config.num_reducers);
    const double seg_bytes =
        static_cast<double>(job.map_output_bytes) / num_reduces;
    const bool local = job.map_node[map_index] == task.node;

    // Receiver-side modelling: remote segments cross the reducer's NIC,
    // local segments are read from the local disk; both are then written
    // to the reducer's disk (on-disk merge path).
    const double write_demand =
        seg_bytes / (hw.disk_write_bytes_per_sec * hw.disks) * task.noise;
    // Chained after the transfer leg (network for remote segments, local
    // read for node-local ones): write the segment to the reducer's disk.
    auto after_transfer = [this, id, write_demand](double net_elapsed) {
      auto it2 = running.find(id);
      if (it2 == running.end()) return;
      RunningTask& t = it2->second;
      t.record.network_residence += net_elapsed;
      Status st =
          StationOf(t.node, Res::kDisk)
              .Submit(write_demand, [this, id](double disk_elapsed) {
                auto it3 = running.find(id);
                if (it3 == running.end()) return;
                RunningTask& t3 = it3->second;
                t3.record.disk_residence += disk_elapsed;
                ++t3.shuffle.segments_fetched;
                --t3.shuffle.active_fetches;
                TryLaunchFetches(id);
              });
      if (!st.ok()) Fail(st);
    };

    if (local) {
      const double read_demand =
          seg_bytes / (hw.disk_read_bytes_per_sec * hw.disks) * task.noise;
      task.record.disk_demand += read_demand + write_demand;
      Status st = StationOf(task.node, Res::kDisk)
                      .Submit(read_demand,
                              [this, id, after_transfer](double elapsed) {
                                auto it2 = running.find(id);
                                if (it2 == running.end()) return;
                                it2->second.record.disk_residence += elapsed;
                                after_transfer(/*net_elapsed=*/0.0);
                              });
      if (!st.ok()) Fail(st);
    } else {
      const double net_demand =
          seg_bytes / hw.network_bytes_per_sec * task.noise;
      task.record.network_demand += net_demand;
      task.record.disk_demand += write_demand;
      Status st = StationOf(task.node, Res::kNet)
                      .Submit(net_demand, after_transfer);
      if (!st.ok()) Fail(st);
    }
  }

  void StartReduceTail(int64_t id) {
    auto it = running.find(id);
    if (it == running.end()) return;
    RunningTask& task = it->second;
    Job& job = jobs[task.job];
    const ReduceTaskCost& rc = job.reduce_cost;
    AddPhase(task, Res::kCpu, rc.merge.cpu);
    AddPhase(task, Res::kDisk, rc.merge.disk);
    AddPhase(task, Res::kCpu, rc.reduce.cpu);
    AddPhase(task, Res::kDisk, rc.write.disk);
    AddPhase(task, Res::kNet, rc.write.network);
    RunNextPhase(id);
  }

  // ---- completion -----------------------------------------------------
  void FinishTask(int64_t id) {
    auto it = running.find(id);
    if (it == running.end()) return;
    RunningTask& task = it->second;
    Job& job = jobs[task.job];
    task.record.end = queue.Now();

    Status st = nodes[task.node].Release(task.container.capability);
    if (!st.ok()) {
      Fail(st);
      return;
    }
    st = job.am->CompleteTask(task.index);
    if (!st.ok()) {
      Fail(st);
      return;
    }

    if (task.type == TaskType::kMap) {
      job.map_done[task.index] = true;
      // Wake shuffling reducers of this job.
      for (int64_t rid : job.shuffling_tasks) {
        auto rit = running.find(rid);
        if (rit == running.end()) continue;
        if (!rit->second.shuffle.active) continue;
        rit->second.shuffle.ready_segments.push_back(task.index);
        TryLaunchFetches(rid);
      }
    }

    finished_tasks.push_back(task.record);
    running.erase(it);

    if (job.am->Done() && !job.finished) {
      job.finished = true;
      job.end_time = queue.Now();
      st = nodes[job.am_node].Release(job.am_capability);
      if (!st.ok()) Fail(st);
      st = scheduler->UnregisterApplication(job.am->app_id());
      if (!st.ok()) Fail(st);
      --jobs_remaining;
    }
  }

  // ---- run ---------------------------------------------------------------
  Result<SimResult> RunAll() {
    MRPERF_RETURN_NOT_OK(Init());
    if (jobs.empty()) {
      return Status::FailedPrecondition("no jobs submitted");
    }
    ScheduleSubmissions();
    MRPERF_ASSIGN_OR_RETURN(int64_t events, queue.Run(options.max_sim_time));
    MRPERF_RETURN_NOT_OK(failure);
    if (jobs_remaining != 0) {
      return Status::Internal(
          "simulation drained with unfinished jobs (deadlock?)");
    }
    SimResult result;
    result.events_executed = events;
    result.tasks = finished_tasks;
    double makespan = 0.0;
    for (const auto& job : jobs) {
      result.job_submit_times.push_back(job.submit_time);
      result.job_response_times.push_back(job.end_time - job.submit_time);
      makespan = std::max(makespan, job.end_time);
    }
    result.makespan = makespan;
    if (makespan > 0) {
      const int total_nodes = cluster.TotalNodes();
      double cpu = 0, disk = 0, net = 0;
      for (int i = 0; i < total_nodes; ++i) {
        cpu += StationOf(i, Res::kCpu).BusyIntegral() /
               (makespan * cluster.NodeCapacity(i).vcores);
        disk += StationOf(i, Res::kDisk).BusyIntegral() /
                (makespan * cluster.node.disks);
        net += StationOf(i, Res::kNet).BusyIntegral() / makespan;
      }
      result.cpu_utilization = cpu / total_nodes;
      result.disk_utilization = disk / total_nodes;
      result.network_utilization = net / total_nodes;
    }
    return result;
  }
};

ClusterSimulator::ClusterSimulator(ClusterConfig cluster, SimOptions options)
    : impl_(std::make_unique<Impl>(cluster, options)) {}

ClusterSimulator::~ClusterSimulator() = default;

Status ClusterSimulator::SubmitJob(SimJobSpec spec) {
  return impl_->Submit(std::move(spec));
}

Result<SimResult> ClusterSimulator::Run() { return impl_->RunAll(); }

}  // namespace mrperf
