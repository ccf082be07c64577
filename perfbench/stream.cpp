// supervised_stream: the paper's own deployment. One V3 testbed lab behind
// trace::Supervisor::step, closed loop with one client: each command is
// issued only after the previous step returned.
//
// Inputs (generated from the seed, outside every timed region): the Fig. 5
// recipe recorded once and repeated, so its trajectories hit the
// simulator's verdict cache, interleaved with seeded viperx move_to legs to
// unique clear targets, which miss it. The simulator world carries 400
// shelf boxes far from every motion path, as fleet::StreamSpec's
// extra_obstacles does, so the narrow phase sees a production-density world
// while the lab's own physics is unchanged.
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/config.hpp"
#include "core/engine.hpp"
#include "devices/robot_arm.hpp"
#include "obs/obs.hpp"
#include "script/workflows.hpp"
#include "sim/backend.hpp"
#include "sim/deck.hpp"
#include "sim/extended_sim.hpp"
#include "trace/trace.hpp"

namespace perfbench {
namespace {

using namespace rabit;

constexpr std::size_t kCycles = 200;         // recipe repetitions per pass
constexpr std::size_t kLegsPerCycle = 10;    // unique move_to legs per cycle
constexpr std::size_t kShelfBoxes = 400;     // extra simulator-only obstacles
constexpr std::size_t kMinTimedPasses = 3;
constexpr double kMaxUnaccountedShare = 0.05;

struct StreamInput {
  std::vector<dev::Command> commands;
  std::size_t recipe_commands = 0;
  std::size_t motion_legs = 0;
};

dev::Command make_command(const char* device, const char* action, json::Object args = {}) {
  dev::Command cmd;
  cmd.device = device;
  cmd.action = action;
  cmd.args = json::Value(std::move(args));
  return cmd;
}

/// Per cycle: the Fig. 5 recipe (it ends with both arms asleep), then
/// kLegsPerCycle viperx moves to seeded lab-frame targets in
/// x in [-0.1, 0.2], y in [-0.15, 0.15], z in [0.30, 0.45] m, then go_sleep
/// so the next recipe starts from the same pose.
StreamInput make_stream(std::uint64_t seed) {
  sim::LabBackend staging(sim::testbed_profile());
  sim::build_hein_testbed_deck(staging);
  std::vector<dev::Command> recipe =
      script::record_workflow(staging, script::testbed_workflow_source());
  const dev::RobotArmDevice& viperx = staging.arm(sim::deck_ids::kViperX);

  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> ux(-0.1, 0.2);
  std::uniform_real_distribution<double> uy(-0.15, 0.15);
  std::uniform_real_distribution<double> uz(0.30, 0.45);
  StreamInput in;
  in.recipe_commands = recipe.size();
  for (std::size_t cycle = 0; cycle < kCycles; ++cycle) {
    in.commands.insert(in.commands.end(), recipe.begin(), recipe.end());
    for (std::size_t leg = 0; leg < kLegsPerCycle; ++leg) {
      double x = ux(rng);
      double y = uy(rng);
      double z = uz(rng);
      geom::Vec3 local = viperx.to_local(geom::Vec3(x, y, z));
      json::Object args;
      args["position"] = json::Array{local.x, local.y, local.z};
      in.commands.push_back(make_command(sim::deck_ids::kViperX, "move_to", std::move(args)));
      ++in.motion_legs;
    }
    in.commands.push_back(make_command(sim::deck_ids::kViperX, "go_sleep"));
  }
  return in;
}

/// One supervised V3 lab, built the way fleet::FleetRunner::run_stream
/// builds a dense-world stream, with the default recovery policy and
/// assurance config. Construct in place: the simulator's arm-state provider
/// captures the backend by address.
struct SupervisedLab {
  std::optional<sim::LabBackend> backend;
  std::optional<sim::ExtendedSimulator> simulator;
  std::optional<core::RabitEngine> engine;
  std::optional<trace::Supervisor> supervisor;
  double lab_build_ms = 0.0;  ///< backend, deck, world model, simulator
  double config_ms = 0.0;     ///< core::config_from_backend

  explicit SupervisedLab(obs::Sink* sink) {
    double t0 = wall_now_s();
    backend.emplace(sim::testbed_profile());
    sim::build_hein_testbed_deck(*backend);
    double t1 = wall_now_s();
    core::EngineConfig config = core::config_from_backend(*backend, core::Variant::ModifiedWithSim);
    double t2 = wall_now_s();
    sim::WorldModel world = sim::deck_world_model(*backend);
    for (const core::DeviceMeta& m : config.devices) {
      if (m.is_arm && m.sleep_box) world.add_box(m.id, *m.sleep_box, sim::ObstacleKind::ParkedArm);
    }
    for (std::size_t i = 0; i < kShelfBoxes; ++i) {
      double x = 8.0 + 0.3 * static_cast<double>(i % 20);
      double y = 0.3 * static_cast<double>((i / 20) % 20);
      double z = 0.3 * static_cast<double>(i / 400);
      world.add_box("shelf-" + std::to_string(i),
                    geom::Aabb(geom::Vec3(x, y, z), geom::Vec3(x + 0.25, y + 0.25, z + 0.25)),
                    sim::ObstacleKind::Equipment);
    }
    simulator.emplace(std::move(world), sim::ExtendedSimulator::Options{});
    simulator->set_arm_state_provider([this](std::string_view arm_id) -> std::optional<geom::Vec3> {
      const auto* arm = dynamic_cast<const dev::RobotArmDevice*>(backend->registry().find(arm_id));
      if (arm == nullptr) return std::nullopt;
      return arm->position_lab();
    });
    double t3 = wall_now_s();
    engine.emplace(std::move(config));
    engine->attach_simulator(&*simulator);
    trace::Supervisor::Options options;
    options.halt_on_alert = false;
    options.recovery = recovery::RecoveryPolicy{};
    options.assurance = assurance::AssuranceConfig{};
    options.obs_sink = sink;
    supervisor.emplace(&*engine, &*backend, options);
    supervisor->start();
    lab_build_ms = ms(t0, t1) + ms(t2, t3);
    config_ms = ms(t1, t2);
  }
  SupervisedLab(const SupervisedLab&) = delete;
  SupervisedLab& operator=(const SupervisedLab&) = delete;
};

Verdict verdict_of(std::size_t index, const trace::SupervisedStep& step) {
  Verdict v;
  v.command = index;
  if (step.demoted) {
    v.outcome = "demoted";
    v.rule = step.alert ? step.alert->rule : "RTA";
  } else if (step.alert) {
    v.outcome = step.alert->kind == core::AlertKind::DeviceMalfunction ? "malfunction" : "blocked";
    v.rule = step.alert->rule;
  } else if (!step.exec) {
    v.outcome = "refused";
  } else if (!step.exec->executed) {
    v.outcome = "firmware_error";
  } else if (step.exec->silently_skipped) {
    v.outcome = "silently_skipped";
  } else {
    v.outcome = "pass";
  }
  return v;
}

/// One pass: build the lab, then step every command. A traced pass turns
/// the Supervisor's spans on and keeps their phase means.
struct Pass {
  std::vector<Verdict> verdicts;
  // Wall time of each Supervisor::step call, summarized.
  double step_p50_us = 0.0;
  double step_p99_us = 0.0;
  double step_p999_us = 0.0;
  double step_max_us = 0.0;
  double first_step_us = 0.0;
  double steps_s = 0.0;  ///< sum over all steps
  // SupervisedStep::check_wall_us (thread CPU of the engine checks).
  double check_cpu_p50_us = 0.0;
  double check_cpu_p99_us = 0.0;
  double setup_s = 0.0;
  double wall_s = 0.0;  ///< lab build to last step
  double cpu_s = 0.0;   ///< process CPU over the same interval
  double lab_build_ms = 0.0;
  double config_ms = 0.0;
  std::size_t alerts = 0;
  std::size_t demotions = 0;
  std::size_t trajectory_checks = 0;
  std::size_t cache_hits = 0;
  std::size_t narrow_phase_runs = 0;
  std::size_t margin_scans = 0;
  double canonicalize_us = 0.0;  ///< traced passes: mean span phase times
  double precondition_us = 0.0;
  std::string error;  ///< what threw, when a call threw
};

Pass run_pass(const StreamInput& in, bool traced) {
  Pass pass;
  obs::Collector spans;
  pass.verdicts.reserve(in.commands.size());
  std::vector<double> step_us;
  std::vector<double> check_cpu_us;
  step_us.reserve(in.commands.size());
  check_cpu_us.reserve(in.commands.size());
  double cpu0 = process_cpu_s();
  double t0 = wall_now_s();
  try {
    SupervisedLab lab(traced ? &spans : nullptr);
    double t1 = wall_now_s();
    pass.setup_s = t1 - t0;
    for (std::size_t i = 0; i < in.commands.size(); ++i) {
      double s0 = wall_now_s();
      trace::SupervisedStep step = lab.supervisor->step(in.commands[i]);
      double s1 = wall_now_s();
      step_us.push_back((s1 - s0) * 1e6);
      check_cpu_us.push_back(step.check_wall_us);
      pass.verdicts.push_back(verdict_of(i, step));
      if (step.alert) ++pass.alerts;
      if (step.demoted) ++pass.demotions;
    }
    pass.wall_s = wall_now_s() - t0;
    pass.cpu_s = process_cpu_s() - cpu0;
    pass.first_step_us = step_us.empty() ? 0.0 : step_us.front();
    for (double us : step_us) pass.steps_s += us * 1e-6;
    pass.step_p50_us = percentile(step_us, 0.50);
    pass.step_p99_us = percentile(step_us, 0.99);
    pass.step_p999_us = percentile(step_us, 0.999);
    pass.step_max_us = percentile(step_us, 1.0);
    pass.check_cpu_p50_us = percentile(check_cpu_us, 0.50);
    pass.check_cpu_p99_us = percentile(check_cpu_us, 0.99);
    pass.lab_build_ms = lab.lab_build_ms;
    pass.config_ms = lab.config_ms;
    pass.trajectory_checks = lab.simulator->checks_performed();
    pass.cache_hits = lab.simulator->verdict_cache_hits();
    pass.narrow_phase_runs = lab.simulator->narrow_phase_runs();
    pass.margin_scans = lab.simulator->margin_scans();
    if (traced) {
      pass.canonicalize_us = phase_mean_us(spans, obs::Phase::Canonicalize);
      pass.precondition_us = phase_mean_us(spans, obs::Phase::Precondition);
    }
  } catch (const std::exception& e) {
    pass.error = e.what();
  }
  return pass;
}

/// The Supervisor's recovery ladder records execution and the postcondition
/// check as one dispatch phase. This pass splits them by driving the same
/// commands through the engine's public Fig. 2 calls on a fresh lab and
/// timing each call: check_command, apply_expected, LabBackend::execute
/// (lab-model time), then fetch_status + verify_postconditions.
struct SplitPass {
  std::vector<double> execute_us;
  std::vector<double> postcondition_us;
  std::vector<Verdict> verdicts;
};

SplitPass run_split_pass(const StreamInput& in) {
  SplitPass split;
  SupervisedLab lab(nullptr);
  core::RabitEngine& engine = *lab.engine;
  sim::LabBackend& backend = *lab.backend;
  for (std::size_t i = 0; i < in.commands.size(); ++i) {
    const dev::Command& cmd = in.commands[i];
    Verdict v;
    v.command = i;
    v.outcome = "pass";
    if (std::optional<core::Alert> alert = engine.check_command(cmd)) {
      v.outcome = "blocked";
      v.rule = alert->rule;
      split.verdicts.push_back(std::move(v));
      continue;
    }
    engine.apply_expected(cmd);
    double t0 = wall_now_s();
    sim::ExecResult exec = backend.execute(cmd);
    double t1 = wall_now_s();
    std::optional<core::Alert> post =
        engine.verify_postconditions(cmd, backend.fetch_status().snapshot);
    double t2 = wall_now_s();
    split.execute_us.push_back((t1 - t0) * 1e6);
    split.postcondition_us.push_back((t2 - t1) * 1e6);
    if (post) {
      v.outcome = "malfunction";
      v.rule = post->rule;
    } else if (!exec.executed) {
      v.outcome = "firmware_error";
    } else if (exec.silently_skipped) {
      v.outcome = "silently_skipped";
    }
    split.verdicts.push_back(std::move(v));
  }
  return split;
}

}  // namespace

WorkloadResult run_supervised_stream(const RunOptions& opts) {
  StreamInput in = make_stream(opts.seed);
  WorkloadResult result;
  result.sizes = {{"streams", 1.0},
                  {"commands", static_cast<double>(in.commands.size())},
                  {"recipe_commands", static_cast<double>(in.recipe_commands)},
                  {"motion_legs", static_cast<double>(in.motion_legs)},
                  {"shelf_boxes", static_cast<double>(kShelfBoxes)},
                  {"bytes", 0.0}};

  // Reference pass, traced and untimed: its verdicts are what every timed
  // (untraced) pass must reproduce, and its digest is what the pin checks.
  Pass reference = run_pass(in, /*traced=*/true);
  if (!reference.error.empty()) throw std::runtime_error(reference.error);
  if (reference.verdicts.size() != in.commands.size()) {
    throw std::runtime_error("reference pass checked " +
                             std::to_string(reference.verdicts.size()) + " of " +
                             std::to_string(in.commands.size()) + " commands");
  }
  result.digest = digest(reference.verdicts);

  auto account = [&](Pass& pass) {
    result.attempted += in.commands.size();
    result.failed += count_differences(reference.verdicts, pass.verdicts);
    if (!pass.error.empty()) result.problems.push_back("a call threw: " + pass.error);
    std::vector<Verdict>().swap(pass.verdicts);  // peak memory must not grow with passes
  };

  for (double warm = wall_now_s(); wall_now_s() - warm < kWarmupSeconds;) {
    Pass pass = run_pass(in, /*traced=*/false);
    account(pass);
  }

  std::vector<Pass> plain;    // untraced passes
  std::vector<Pass> traced;   // traced passes (trace mode only)
  double start = wall_now_s();
  if (!opts.trace) {
    while (plain.size() < kMinTimedPasses || wall_now_s() - start < opts.seconds) {
      plain.push_back(run_pass(in, /*traced=*/false));
      account(plain.back());
    }
    std::vector<double> setup, cps, cpu;
    double n = static_cast<double>(in.commands.size());
    for (const Pass& p : plain) {
      setup.push_back(p.setup_s);
      cps.push_back(n / p.wall_s);
      cpu.push_back(p.cpu_s * 1e6 / n);
    }
    result.metrics = {{"setup_s", fast_cost(setup), "s"},
                      {"commands_per_s", fast_rate(cps), "1/s"},
                      {"cpu_us_per_cmd", fast_cost(cpu), "us"},
                      {"peak_rss_mb", peak_rss_mb(), "MiB"}};
    return result;
  }

  // Traced run: alternate untraced and traced passes so both see the same
  // machine state; the untraced walls give the tracing overhead.
  while (traced.size() < 2 || wall_now_s() - start < opts.seconds) {
    plain.push_back(run_pass(in, /*traced=*/false));
    account(plain.back());
    traced.push_back(run_pass(in, /*traced=*/true));
    account(traced.back());
  }
  SplitPass split = run_split_pass(in);
  result.attempted += in.commands.size();
  result.failed += count_differences(reference.verdicts, split.verdicts);

  // Step walls come from the untraced passes: the benchmark times each
  // Supervisor::step call itself, so spans would only add their own cost.
  std::vector<double> plain_wall, p50, p99, p999, pmax, first;
  for (const Pass& p : plain) {
    plain_wall.push_back(p.wall_s);
    p50.push_back(p.step_p50_us);
    p99.push_back(p.step_p99_us);
    p999.push_back(p.step_p999_us);
    pmax.push_back(p.step_max_us);
    first.push_back(p.first_step_us);
  }
  std::vector<double> traced_wall, lab_build, config, check_p50, check_p99, canon, precond,
      unaccounted;
  for (const Pass& p : traced) {
    traced_wall.push_back(p.wall_s);
    lab_build.push_back(p.lab_build_ms);
    config.push_back(p.config_ms);
    check_p50.push_back(p.check_cpu_p50_us);
    check_p99.push_back(p.check_cpu_p99_us);
    canon.push_back(p.canonicalize_us);
    precond.push_back(p.precondition_us);
    unaccounted.push_back((p.wall_s - p.setup_s - p.steps_s) / p.wall_s);
  }
  if (median(unaccounted) > kMaxUnaccountedShare) {
    result.problems.push_back("timed stages leave " + std::to_string(median(unaccounted)) +
                              " of the traced wall time unaccounted");
  }
  const Pass& last = traced.back();
  auto count = [](std::size_t n) { return static_cast<double>(n); };
  double n_cmds = count(in.commands.size());
  result.metrics = {
      {"json.parse_ms", 0.0, "ms"},
      {"json.bytes", 0.0, "bytes"},
      {"fleet.load_ms", 0.0, "ms"},
      {"fleet.run_campaign_ms", 0.0, "ms"},
      {"fleet.shard_exec_ms", 0.0, "ms"},
      {"fleet.shards", 0.0, "count"},
      {"fleet.parallel_speedup", 0.0, "ratio"},
      {"fleet.outside_exec_ms", 0.0, "ms"},
      {"fleet.solo_replays", 0.0, "count"},
      {"fleet.solo_replay_commands", 0.0, "count"},
      {"analysis.summarize_ms", 0.0, "ms"},
      {"analysis.plan_ms", 0.0, "ms"},
      {"analysis.verify_ms", 0.0, "ms"},
      {"analysis.edges", 0.0, "count"},
      {"analysis.certificates", 0.0, "count"},
      {"analysis.truncated", 0.0, "count"},
      {"core.config_ms", median(config), "ms"},
      {"core.check_cpu_p50_us", median(check_p50), "us"},
      {"core.check_cpu_p99_us", median(check_p99), "us"},
      {"core.canonicalize_us", median(canon), "us"},
      {"core.precondition_us", median(precond), "us"},
      {"core.postcondition_us", mean(split.postcondition_us), "us"},
      {"core.alert_share", count(last.alerts) / n_cmds, "ratio"},
      {"sim.trajectory_checks", count(last.trajectory_checks), "count"},
      {"sim.verdict_cache_hit_ratio",
       last.trajectory_checks > 0 ? count(last.cache_hits) / count(last.trajectory_checks) : 0.0,
       "ratio"},
      {"sim.narrow_phase_runs", count(last.narrow_phase_runs), "count"},
      {"sim.margin_scans", count(last.margin_scans), "count"},
      {"sim.lab_build_ms", median(lab_build), "ms"},
      {"devices.dispatch_us", mean(split.execute_us), "us"},
      {"trace.step_p50_us", median(p50), "us"},
      {"trace.step_p99_us", median(p99), "us"},
      {"trace.step_p999_us", median(p999), "us"},
      {"trace.step_max_us", median(pmax), "us"},
      {"trace.first_step_us", median(first), "us"},
      {"assurance.demotions", count(last.demotions), "count"},
      {"obs.overhead_share", median(traced_wall) / median(plain_wall) - 1.0, "ratio"},
      {"obs.unaccounted_share", median(unaccounted), "ratio"},
  };
  return result;
}

}  // namespace perfbench
