// The two fleet workloads: a campaign arrives as JSON bytes and leaves as a
// CampaignReport with its alerts classified. One pass runs
//
//   json::parse -> fleet::load_campaign -> probe lab + core::config_from_backend
//   -> analysis::plan_campaign_shards -> fleet::Fleet::run_campaign(spec, plan)
//
// sharded_fleet: 256 streams over the 8 single-device groups of
//   bench_throughput --shard-smoke's campaign, each group's 4-command cycle
//   repeated to 40 commands. Nothing is shared across groups, so the planner
//   must cut exactly 8 shards and the worker pool runs them in parallel;
//   nothing alerts, so solo replays never run.
// contended_lab: 256 Fig. 5 testbed streams on one shared lab, a seeded
//   quarter of them carrying one bugs::random_mutation (through
//   scenario::materialize). Every stream drives the same arm and dosing
//   station: one shard, a dense conflict graph, many alerts and a solo
//   replay per alerting stream.
#include <algorithm>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "analysis/interference.hpp"
#include "analysis/shard_plan.hpp"
#include "bench.hpp"
#include "core/config.hpp"
#include "devices/stations.hpp"
#include "fleet/fleet.hpp"
#include "json/json.hpp"
#include "scenario/scenario.hpp"
#include "sim/backend.hpp"
#include "sim/deck.hpp"

namespace perfbench {
namespace {

using namespace rabit;

constexpr std::size_t kStreams = 256;
constexpr std::size_t kShardedGroups = 8;
constexpr std::size_t kCycleRepeats = 10;  // 4-command cycle -> 40 commands
constexpr std::size_t kMutatedShare = 4;   // one stream in four is mutated
constexpr std::size_t kMinTimedPasses = 3;
constexpr double kMaxUnaccountedShare = 0.05;

/// The generated input of a campaign workload: its bytes plus what the
/// JSON cannot carry.
struct CampaignInput {
  std::string bytes;
  std::function<void(sim::LabBackend&)> deck;  ///< null = standard testbed deck
  std::size_t expected_shards = 0;
  std::size_t streams = 0;
  std::size_t commands = 0;
};

json::Value command_json(const dev::Command& cmd) {
  json::Object o;
  o["device"] = cmd.device;
  o["action"] = cmd.action;
  if (!cmd.args.is_null()) o["args"] = cmd.args;
  return json::Value(std::move(o));
}

/// Serializes streams in the rabit_lint --fleet campaign format.
CampaignInput campaign_bytes(unsigned campaign_seed,
                             const std::vector<fleet::CampaignStreamSpec>& streams) {
  CampaignInput in;
  json::Object doc;
  doc["seed"] = static_cast<std::int64_t>(campaign_seed);
  doc["variant"] = "modified+sim";
  doc["halt_on_alert"] = false;
  json::Array items;
  for (const fleet::CampaignStreamSpec& s : streams) {
    json::Object item;
    item["name"] = s.name;
    json::Array cmds;
    for (const dev::Command& c : s.commands) cmds.push_back(command_json(c));
    item["commands"] = json::Value(std::move(cmds));
    items.emplace_back(std::move(item));
    in.commands += s.commands.size();
  }
  doc["streams"] = json::Value(std::move(items));
  in.bytes = json::serialize(json::Value(std::move(doc)));
  in.streams = streams.size();
  return in;
}

/// The standard testbed deck plus a Berlinguette-style spin coater, the
/// deck bench_throughput's sharded campaign runs on.
void spin_coater_deck(sim::LabBackend& backend) {
  sim::build_hein_testbed_deck(backend);
  backend.registry().add(std::make_unique<dev::GenericActionDevice>(
      "spin_coater",
      std::vector<dev::GenericActionDevice::ValueActionSpec>{
          {"set_spin_speed", "spinSpeed", "rpm", 8000.0}},
      /*has_door=*/false, std::nullopt));
}

CampaignInput make_sharded_fleet(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  auto draw = [&rng](double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(rng);
  };
  std::vector<fleet::CampaignStreamSpec> streams(kStreams);
  for (std::size_t i = 0; i < kStreams; ++i) {
    fleet::CampaignStreamSpec& stream = streams[i];
    stream.name = "stream-" + std::to_string(i);
    auto push = [&stream](const char* device, const char* action, json::Object args = {}) {
      dev::Command cmd;
      cmd.device = device;
      cmd.action = action;
      cmd.args = json::Value(std::move(args));
      stream.commands.push_back(std::move(cmd));
    };
    auto value = [](const char* key, json::Value v) {
      json::Object o;
      o[key] = std::move(v);
      return o;
    };
    for (std::size_t rep = 0; rep < kCycleRepeats; ++rep) {
      switch (i % kShardedGroups) {
        case 0:
          push("hotplate", "set_temperature", value("celsius", draw(40.0, 55.0)));
          push("hotplate", "stop");
          push("hotplate", "set_temperature", value("celsius", draw(35.0, 50.0)));
          push("hotplate", "stop");
          break;
        case 1:
          push("thermoshaker", "set_temperature", value("celsius", draw(30.0, 45.0)));
          push("thermoshaker", "stop");
          push("thermoshaker", "set_temperature", value("celsius", draw(25.0, 40.0)));
          push("thermoshaker", "stop");
          break;
        case 2:
        case 4: {
          const char* device = i % kShardedGroups == 2 ? "centrifuge" : "dosing_device";
          for (const char* state : {"open", "closed", "open", "closed"}) {
            push(device, "set_door", value("state", state));
          }
          break;
        }
        case 3:
          for (int k = 0; k < 4; ++k) {
            push("syringe_pump", "draw_solvent", value("volume", draw(0.05, 0.12)));
          }
          break;
        case 5:
          for (const char* action : {"start", "stop", "start", "stop"}) push("camera", action);
          break;
        case 6:
          push("spin_coater", "set_spin_speed", value("rpm", draw(500.0, 2000.0)));
          push("spin_coater", "start");
          push("spin_coater", "stop");
          push("spin_coater", "set_spin_speed", value("rpm", draw(300.0, 1050.0)));
          break;
        default:
          for (const char* action : {"go_home", "go_sleep", "go_home", "go_sleep"}) {
            push("viperx", action);
          }
          break;
      }
    }
  }
  CampaignInput in = campaign_bytes(static_cast<unsigned>(rng() >> 33), streams);
  in.deck = spin_coater_deck;
  in.expected_shards = kShardedGroups;
  return in;
}

CampaignInput make_contended_lab(std::uint64_t seed) {
  scenario::ScenarioSpec spec;
  spec.seed = seed;
  spec.variant = core::Variant::ModifiedWithSim;
  spec.halt_on_alert = false;
  std::vector<std::size_t> order(kStreams);
  std::iota(order.begin(), order.end(), 0);
  std::mt19937_64 rng(scenario::derive_seed(seed, 1));
  std::shuffle(order.begin(), order.end(), rng);
  std::set<std::size_t> mutated(order.begin(), order.begin() + kStreams / kMutatedShare);
  for (std::size_t i = 0; i < kStreams; ++i) {
    scenario::StreamGene gene;
    gene.workflow = scenario::WorkflowKind::Testbed;
    gene.seed = scenario::derive_seed(seed, 1000 + i);
    gene.mutations = mutated.contains(i) ? 1 : 0;
    spec.streams.push_back(gene);
  }
  scenario::MaterializedScenario mat = scenario::materialize(spec);
  CampaignInput in = campaign_bytes(static_cast<unsigned>(rng() >> 33), mat.streams);
  in.expected_shards = 1;
  return in;
}

/// One bytes-to-report pass. Untraced passes time setup and the whole;
/// traced passes time every stage, split planning into summarize and plan,
/// run verify_plan (outside the bytes-to-report wall) and turn the shards'
/// obs spans on.
struct Pass {
  std::vector<Verdict> verdicts;  ///< every command, in schedule order
  std::size_t checked = 0;
  std::size_t alerts = 0;
  double setup_s = 0.0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  fleet::LatencySummary check_latency;
  double shard_exec_ms = 0.0;
  std::size_t shards = 0;
  std::size_t coordination_events = 0;
  std::size_t certificate_breaches = 0;
  std::size_t solo_replays = 0;
  std::size_t solo_replay_commands = 0;
  // Traced passes only.
  double parse_ms = 0.0;
  double load_ms = 0.0;
  double lab_build_ms = 0.0;
  double config_ms = 0.0;
  double summarize_ms = 0.0;
  double plan_ms = 0.0;
  double verify_ms = 0.0;
  double run_campaign_ms = 0.0;
  std::size_t edges = 0;
  std::size_t certificates = 0;
  std::size_t truncated = 0;
  std::size_t plan_violations = 0;
  double canonicalize_us = 0.0;  ///< mean span phase times per command
  double precondition_us = 0.0;
  double dispatch_us = 0.0;
  double postcondition_us = 0.0;
  double step_p50_us = 0.0;  ///< span phase sums: one step's wall
  double step_p99_us = 0.0;
  double step_p999_us = 0.0;
  double step_max_us = 0.0;
  double first_step_us = 0.0;  ///< median over shards of the shard's first step
  std::string error;
};

Pass run_pass(const CampaignInput& in, std::size_t workers, bool traced) {
  Pass pass;
  // Times one stage on its own clock readings, so whatever runs between
  // stages stays unaccounted and shows in obs.unaccounted_share.
  auto stage = [](double& out_ms, auto&& body) {
    double a = wall_now_s();
    body();
    out_ms = ms(a, wall_now_s());
  };
  double cpu0 = process_cpu_s();
  double t0 = wall_now_s();
  try {
    json::Value doc;
    stage(pass.parse_ms, [&] { doc = json::parse(in.bytes); });
    fleet::CampaignSpec spec;
    stage(pass.load_ms, [&] { spec = fleet::load_campaign(doc); });
    spec.deck = in.deck;
    std::optional<sim::LabBackend> probe;
    stage(pass.lab_build_ms, [&] {
      probe.emplace(sim::testbed_profile(), spec.seed);
      if (spec.deck) {
        spec.deck(*probe);
      } else {
        sim::build_hein_testbed_deck(*probe);
      }
    });
    core::EngineConfig config;
    stage(pass.config_ms, [&] { config = core::config_from_backend(*probe, spec.variant); });
    // plan_campaign_shards takes the streams as analysis::CampaignStream.
    auto to_planned = [&spec] {
      std::vector<analysis::CampaignStream> planned;
      planned.reserve(spec.streams.size());
      for (const fleet::CampaignStreamSpec& s : spec.streams) {
        planned.push_back(analysis::CampaignStream{s.name, s.commands});
      }
      return planned;
    };
    analysis::ShardPlan plan;
    std::vector<analysis::StreamSummary> summaries;  // traced passes; freed after the wall
    if (traced) {
      stage(pass.summarize_ms, [&] {
        std::vector<analysis::CampaignStream> planned = to_planned();
        summaries.reserve(planned.size());
        for (const analysis::CampaignStream& s : planned) {
          summaries.push_back(analysis::summarize_stream(config, s.name, s.commands));
        }
      });
      stage(pass.plan_ms, [&] { plan = analysis::plan_shards(config, summaries); });
      // verify_plan is a check, not part of bytes-to-report: its time is
      // taken out of the pass's setup and wall below.
      stage(pass.verify_ms, [&] {
        pass.plan_violations = analysis::verify_plan(config, summaries, plan).size();
      });
      for (const analysis::StreamSummary& s : summaries) pass.truncated += s.truncated ? 1 : 0;
    } else {
      plan = analysis::plan_campaign_shards(config, to_planned());
    }
    double t_setup = wall_now_s();
    fleet::ShardedCampaignOptions options;
    options.workers = workers;
    options.obs = traced;
    fleet::CampaignReport report;
    stage(pass.run_campaign_ms,
          [&] { report = fleet::Fleet::run_campaign(spec, plan, options); });
    double t_end = wall_now_s();
    pass.cpu_s = process_cpu_s() - cpu0;
    pass.setup_s = t_setup - t0 - pass.verify_ms * 1e-3;
    pass.wall_s = t_end - t0 - pass.verify_ms * 1e-3;
    pass.edges = plan.edges.size();
    pass.certificates = plan.certificates.size();

    pass.checked = report.commands_checked;
    pass.check_latency = report.check_latency;
    pass.shard_exec_ms = report.wall_s * 1e3;
    pass.shards = report.shards;
    pass.coordination_events = report.coordination_events;
    pass.certificate_breaches = report.certificate_breaches.size();
    if (report.obs_events != nullptr) {
      const obs::Collector& spans = *report.obs_events;
      pass.canonicalize_us = phase_mean_us(spans, obs::Phase::Canonicalize);
      pass.precondition_us = phase_mean_us(spans, obs::Phase::Precondition);
      pass.dispatch_us = phase_mean_us(spans, obs::Phase::Dispatch);
      pass.postcondition_us = phase_mean_us(spans, obs::Phase::Postcondition);
      std::vector<double> steps;
      std::vector<double> firsts;
      for (const obs::SpanRecord& span : spans.spans()) {
        double us = 0.0;
        for (const obs::PhaseSample& p : span.phases) us += p.wall_us;
        steps.push_back(us);
        if (span.seq == 0) firsts.push_back(us);
      }
      pass.step_p50_us = percentile(steps, 0.50);
      pass.step_p99_us = percentile(steps, 0.99);
      pass.step_p999_us = percentile(steps, 0.999);
      pass.step_max_us = percentile(steps, 1.0);
      pass.first_step_us = median(firsts);
    }
    pass.alerts = report.alerts.size();
    std::map<std::pair<std::size_t, std::size_t>, const fleet::CampaignAlert*> alert_at;
    std::set<std::size_t> alerting;
    for (const fleet::CampaignAlert& a : report.alerts) {
      alert_at[{a.stream, a.command_index}] = &a;
      alerting.insert(a.stream);
    }
    pass.verdicts.reserve(report.schedule.size());
    for (const auto& [s, k] : report.schedule) {
      auto it = alert_at.find({s, k});
      if (it == alert_at.end()) {
        pass.verdicts.push_back(Verdict{s, k, "", "pass"});
      } else {
        pass.verdicts.push_back(
            Verdict{s, k, it->second->alert.rule, it->second->cross_stream ? "cross" : "own"});
      }
    }
    pass.solo_replays = alerting.size();
    for (std::size_t s : alerting) pass.solo_replay_commands += spec.streams[s].commands.size();
  } catch (const std::exception& e) {
    pass.error = e.what();
  }
  return pass;
}

WorkloadResult run_campaign_workload(const CampaignInput& in, const RunOptions& opts) {
  WorkloadResult result;
  result.sizes = {{"streams", static_cast<double>(in.streams)},
                  {"commands", static_cast<double>(in.commands)},
                  {"bytes", static_cast<double>(in.bytes.size())},
                  {"expected_shards", static_cast<double>(in.expected_shards)}};

  // Reference pass, traced and untimed: its verdict list is what every other
  // pass must reproduce and what the pinned digest covers; it also carries
  // the plan checks (verify_plan needs the summaries only a traced pass
  // keeps).
  Pass reference = run_pass(in, opts.workers, /*traced=*/true);
  if (!reference.error.empty()) throw std::runtime_error(reference.error);
  result.digest = digest(reference.verdicts);
  if (reference.plan_violations != 0) {
    result.problems.push_back("verify_plan reported " + std::to_string(reference.plan_violations) +
                              " violation(s)");
  }
  if (reference.shards != in.expected_shards) {
    result.problems.push_back("planned " + std::to_string(reference.shards) +
                              " shards, expected " + std::to_string(in.expected_shards));
  }

  auto check = [&](const Pass& pass) {
    if (!pass.error.empty()) result.problems.push_back("a call threw: " + pass.error);
    if (pass.certificate_breaches != 0 || pass.coordination_events != 0) {
      result.problems.push_back(std::to_string(pass.certificate_breaches) +
                                " certificate breach(es), " +
                                std::to_string(pass.coordination_events) +
                                " coordination event(s)");
    }
  };
  auto account = [&](Pass& pass) {
    check(pass);
    result.attempted += in.commands;
    std::size_t unchecked = in.commands > pass.checked ? in.commands - pass.checked : 0;
    result.failed += unchecked + count_differences(reference.verdicts, pass.verdicts);
    std::vector<Verdict>().swap(pass.verdicts);  // peak memory must not grow with passes
  };
  check(reference);

  for (double warm = wall_now_s(); wall_now_s() - warm < kWarmupSeconds;) {
    Pass pass = run_pass(in, opts.workers, /*traced=*/false);
    account(pass);
  }

  std::vector<Pass> plain;
  std::vector<Pass> traced;
  double start = wall_now_s();
  if (!opts.trace) {
    while (plain.size() < kMinTimedPasses || wall_now_s() - start < opts.seconds) {
      plain.push_back(run_pass(in, opts.workers, /*traced=*/false));
      account(plain.back());
    }
    std::vector<double> setup, cps, cpu;
    for (const Pass& p : plain) {
      double n = static_cast<double>(std::max<std::size_t>(p.checked, 1));
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

  // Traced run: rounds of an untraced pass, a traced pass and an untraced
  // 1-worker pass (for the parallel speedup of shard execution), so all
  // three see the same machine state.
  std::vector<Pass> serial;  // 1 worker, for the parallel speedup
  while (traced.size() < 2 || wall_now_s() - start < opts.seconds) {
    plain.push_back(run_pass(in, opts.workers, /*traced=*/false));
    account(plain.back());
    traced.push_back(run_pass(in, opts.workers, /*traced=*/true));
    account(traced.back());
    serial.push_back(run_pass(in, 1, /*traced=*/false));
    account(serial.back());
  }

  std::vector<double> serial_exec;
  for (const Pass& p : serial) serial_exec.push_back(p.shard_exec_ms);
  std::vector<double> plain_wall, plain_exec, traced_wall, parse, load, lab_build, config,
      summarize, plan, verify, run, exec, outside, check_p50, check_p99, canon, precond, post,
      dispatch, p50, p99, p999, pmax, first, unaccounted;
  for (const Pass& p : plain) {
    plain_wall.push_back(p.wall_s);
    plain_exec.push_back(p.shard_exec_ms);
  }
  for (const Pass& p : traced) {
    traced_wall.push_back(p.wall_s);
    parse.push_back(p.parse_ms);
    load.push_back(p.load_ms);
    lab_build.push_back(p.lab_build_ms);
    config.push_back(p.config_ms);
    summarize.push_back(p.summarize_ms);
    plan.push_back(p.plan_ms);
    verify.push_back(p.verify_ms);
    run.push_back(p.run_campaign_ms);
    exec.push_back(p.shard_exec_ms);
    outside.push_back(p.run_campaign_ms - p.shard_exec_ms);
    check_p50.push_back(p.check_latency.p50_us);
    check_p99.push_back(p.check_latency.p99_us);
    double stages_ms = p.parse_ms + p.load_ms + p.lab_build_ms + p.config_ms + p.summarize_ms +
                       p.plan_ms + p.run_campaign_ms;
    unaccounted.push_back((p.wall_s * 1e3 - stages_ms) / (p.wall_s * 1e3));
    canon.push_back(p.canonicalize_us);
    precond.push_back(p.precondition_us);
    post.push_back(p.postcondition_us);
    dispatch.push_back(p.dispatch_us);
    p50.push_back(p.step_p50_us);
    p99.push_back(p.step_p99_us);
    p999.push_back(p.step_p999_us);
    pmax.push_back(p.step_max_us);
    first.push_back(p.first_step_us);
  }
  if (median(unaccounted) > kMaxUnaccountedShare) {
    result.problems.push_back("timed stages leave " + std::to_string(median(unaccounted)) +
                              " of the traced wall time unaccounted");
  }
  auto count = [](std::size_t n) { return static_cast<double>(n); };
  const Pass& last = traced.back();
  result.metrics = {
      {"json.parse_ms", median(parse), "ms"},
      {"json.bytes", count(in.bytes.size()), "bytes"},
      {"fleet.load_ms", median(load), "ms"},
      {"fleet.run_campaign_ms", median(run), "ms"},
      {"fleet.shard_exec_ms", median(exec), "ms"},
      {"fleet.shards", count(last.shards), "count"},
      {"fleet.parallel_speedup", median(serial_exec) / median(plain_exec), "ratio"},
      {"fleet.outside_exec_ms", median(outside), "ms"},
      {"fleet.solo_replays", count(last.solo_replays), "count"},
      {"fleet.solo_replay_commands", count(last.solo_replay_commands), "count"},
      {"analysis.summarize_ms", median(summarize), "ms"},
      {"analysis.plan_ms", median(plan), "ms"},
      {"analysis.verify_ms", median(verify), "ms"},
      {"analysis.edges", count(last.edges), "count"},
      {"analysis.certificates", count(last.certificates), "count"},
      {"analysis.truncated", count(last.truncated), "count"},
      {"core.config_ms", median(config), "ms"},
      {"core.check_cpu_p50_us", median(check_p50), "us"},
      {"core.check_cpu_p99_us", median(check_p99), "us"},
      {"core.canonicalize_us", median(canon), "us"},
      {"core.precondition_us", median(precond), "us"},
      {"core.postcondition_us", median(post), "us"},
      {"core.alert_share", count(reference.alerts) / count(in.commands), "ratio"},
      {"sim.trajectory_checks", 0.0, "count"},
      {"sim.verdict_cache_hit_ratio", 0.0, "ratio"},
      {"sim.narrow_phase_runs", 0.0, "count"},
      {"sim.margin_scans", 0.0, "count"},
      {"sim.lab_build_ms", median(lab_build), "ms"},
      {"devices.dispatch_us", median(dispatch), "us"},
      {"trace.step_p50_us", median(p50), "us"},
      {"trace.step_p99_us", median(p99), "us"},
      {"trace.step_p999_us", median(p999), "us"},
      {"trace.step_max_us", median(pmax), "us"},
      {"trace.first_step_us", median(first), "us"},
      {"assurance.demotions", 0.0, "count"},
      {"obs.overhead_share", median(traced_wall) / median(plain_wall) - 1.0, "ratio"},
      {"obs.unaccounted_share", median(unaccounted), "ratio"},
  };
  return result;
}

}  // namespace

WorkloadResult run_sharded_fleet(const RunOptions& opts) {
  return run_campaign_workload(make_sharded_fleet(opts.seed), opts);
}

WorkloadResult run_contended_lab(const RunOptions& opts) {
  return run_campaign_workload(make_contended_lab(opts.seed), opts);
}

}  // namespace perfbench
