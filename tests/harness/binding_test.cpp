#include "harness/binding.hpp"

#include <gtest/gtest.h>

#include "core/scenarios.hpp"

namespace fairswap::harness {
namespace {

using core::ExperimentConfig;

const BindingTable& table() { return BindingTable::instance(); }

TEST(Binding, EveryKeySetsTheFieldItNames) {
  ExperimentConfig cfg;

  EXPECT_EQ(table().apply(cfg, "label", "my run"), "");
  EXPECT_EQ(cfg.label, "my run");

  EXPECT_EQ(table().apply(cfg, "nodes", "2000"), "");
  EXPECT_EQ(cfg.topology.node_count, 2000u);

  EXPECT_EQ(table().apply(cfg, "bits", "18"), "");
  EXPECT_EQ(cfg.topology.address_bits, 18);

  EXPECT_EQ(table().apply(cfg, "k", "20"), "");
  EXPECT_EQ(cfg.topology.buckets.k, 20u);

  EXPECT_EQ(table().apply(cfg, "k_bucket0", "32"), "");
  EXPECT_EQ(cfg.topology.buckets.k_bucket0, 32u);

  EXPECT_EQ(table().apply(cfg, "files", "123"), "");
  EXPECT_EQ(cfg.files, 123u);

  EXPECT_EQ(table().apply(cfg, "seed", "99"), "");
  EXPECT_EQ(cfg.seed, 99u);

  EXPECT_EQ(table().apply(cfg, "lorenz_points", "50"), "");
  EXPECT_EQ(cfg.lorenz_points, 50u);

  EXPECT_EQ(table().apply(cfg, "originators", "0.2"), "");
  EXPECT_DOUBLE_EQ(cfg.sim.workload.originator_share, 0.2);

  EXPECT_EQ(table().apply(cfg, "min_chunks", "10"), "");
  EXPECT_EQ(cfg.sim.workload.min_chunks_per_file, 10u);

  EXPECT_EQ(table().apply(cfg, "max_chunks", "20"), "");
  EXPECT_EQ(cfg.sim.workload.max_chunks_per_file, 20u);

  EXPECT_EQ(table().apply(cfg, "upload_share", "0.5"), "");
  EXPECT_DOUBLE_EQ(cfg.sim.workload.upload_share, 0.5);

  EXPECT_EQ(table().apply(cfg, "zipf", "0.8"), "");
  EXPECT_DOUBLE_EQ(cfg.sim.workload.originator_zipf_alpha, 0.8);

  EXPECT_EQ(table().apply(cfg, "catalog", "5000"), "");
  EXPECT_EQ(cfg.sim.workload.catalog_size, 5000u);

  EXPECT_EQ(table().apply(cfg, "catalog_zipf", "1.1"), "");
  EXPECT_DOUBLE_EQ(cfg.sim.workload.catalog_zipf_alpha, 1.1);

  EXPECT_EQ(table().apply(cfg, "pricer", "flat"), "");
  EXPECT_EQ(cfg.sim.pricer, "flat");

  EXPECT_EQ(table().apply(cfg, "policy", "tit-for-tat"), "");
  EXPECT_EQ(cfg.sim.policy, "tit-for-tat");

  EXPECT_EQ(table().apply(cfg, "cache", "64"), "");
  EXPECT_EQ(cfg.sim.cache_capacity, 64u);

  EXPECT_EQ(table().apply(cfg, "free_riders", "0.25"), "");
  EXPECT_DOUBLE_EQ(cfg.sim.free_rider_share, 0.25);

  EXPECT_EQ(table().apply(cfg, "amortize_each_step", "on"), "");
  EXPECT_TRUE(cfg.sim.amortize_each_step);

  EXPECT_EQ(table().apply(cfg, "amortization", "777"), "");
  EXPECT_EQ(cfg.sim.swap.amortization_per_tick, Token(777));

  EXPECT_EQ(table().apply(cfg, "payment_threshold", "50000"), "");
  EXPECT_EQ(cfg.sim.swap.payment_threshold, Token(50'000));

  EXPECT_EQ(table().apply(cfg, "disconnect_threshold", "75000"), "");
  EXPECT_EQ(cfg.sim.swap.disconnect_threshold, Token(75'000));

  EXPECT_EQ(table().apply(cfg, "max_hops", "12"), "");
  EXPECT_EQ(cfg.sim.max_route_hops, 12u);

  EXPECT_EQ(table().apply(cfg, "epochs", "40"), "");
  EXPECT_EQ(cfg.agents.epochs, 40u);

  EXPECT_EQ(table().apply(cfg, "files_per_epoch", "250"), "");
  EXPECT_EQ(cfg.agents.files_per_epoch, 250u);

  EXPECT_EQ(table().apply(cfg, "dynamics", "best-response"), "");
  EXPECT_EQ(cfg.agents.dynamics, "best-response");

  EXPECT_EQ(table().apply(cfg, "revision_rate", "0.4"), "");
  EXPECT_DOUBLE_EQ(cfg.agents.revision_rate, 0.4);

  EXPECT_EQ(table().apply(cfg, "noise", "0.05"), "");
  EXPECT_DOUBLE_EQ(cfg.agents.noise, 0.05);

  EXPECT_EQ(table().apply(cfg, "bandwidth_cost", "150"), "");
  EXPECT_DOUBLE_EQ(cfg.agents.bandwidth_cost, 150.0);

  EXPECT_EQ(table().apply(cfg, "initial_free_riders", "0.1"), "");
  EXPECT_DOUBLE_EQ(cfg.agents.initial_free_riders, 0.1);

  EXPECT_EQ(table().apply(cfg, "trace_out", "/tmp/trace.csv"), "");
  EXPECT_EQ(cfg.trace_out, "/tmp/trace.csv");

  EXPECT_EQ(table().apply(cfg, "trace_in", "/tmp/replay.csv"), "");
  EXPECT_EQ(cfg.trace_in, "/tmp/replay.csv");
}

TEST(Binding, TestCoversEveryRegisteredKey) {
  // The round-trip test above must grow with the table: applying every
  // snapshot pair of a mutated config onto a default config must
  // reproduce it, which fails if a key's get/set pair is asymmetric.
  ExperimentConfig mutated;
  mutated.label = "round trip";
  mutated.topology.node_count = 321;
  mutated.topology.address_bits = 14;
  mutated.topology.buckets.k = 7;
  mutated.topology.buckets.k_bucket0 = 9;
  mutated.files = 17;
  mutated.seed = 31337;
  mutated.lorenz_points = 5;
  mutated.sim.workload.originator_share = 0.31;
  mutated.sim.workload.min_chunks_per_file = 3;
  mutated.sim.workload.max_chunks_per_file = 11;
  mutated.sim.workload.upload_share = 0.125;
  mutated.sim.workload.originator_zipf_alpha = 0.9;
  mutated.sim.workload.catalog_size = 400;
  mutated.sim.workload.catalog_zipf_alpha = 1.25;
  mutated.sim.pricer = "proximity";
  mutated.sim.policy = "effort-based";
  mutated.sim.cache_capacity = 8;
  mutated.sim.free_rider_share = 0.0625;
  mutated.sim.amortize_each_step = true;
  mutated.sim.swap.amortization_per_tick = Token(5);
  mutated.sim.swap.payment_threshold = Token(1234);
  mutated.sim.swap.disconnect_threshold = Token(2345);
  mutated.sim.max_route_hops = 77;
  mutated.agents.epochs = 12;
  mutated.agents.files_per_epoch = 333;
  mutated.agents.dynamics = "best-response";
  mutated.agents.revision_rate = 0.375;
  mutated.agents.noise = 0.0625;
  mutated.agents.bandwidth_cost = 123.5;
  mutated.agents.initial_free_riders = 0.22;
  mutated.trace_out = "record.csv";

  ExperimentConfig rebuilt;
  for (const auto& [key, value] : table().snapshot(mutated)) {
    EXPECT_EQ(table().apply(rebuilt, key, value), "") << key << "=" << value;
  }

  // Field-by-field: the snapshot covers every knob the binding table owns.
  EXPECT_EQ(rebuilt.label, mutated.label);
  EXPECT_EQ(rebuilt.topology, mutated.topology);
  EXPECT_EQ(rebuilt.files, mutated.files);
  EXPECT_EQ(rebuilt.seed, mutated.seed);
  EXPECT_EQ(rebuilt.lorenz_points, mutated.lorenz_points);
  EXPECT_DOUBLE_EQ(rebuilt.sim.workload.originator_share,
                   mutated.sim.workload.originator_share);
  EXPECT_EQ(rebuilt.sim.workload.min_chunks_per_file,
            mutated.sim.workload.min_chunks_per_file);
  EXPECT_EQ(rebuilt.sim.workload.max_chunks_per_file,
            mutated.sim.workload.max_chunks_per_file);
  EXPECT_DOUBLE_EQ(rebuilt.sim.workload.upload_share,
                   mutated.sim.workload.upload_share);
  EXPECT_DOUBLE_EQ(rebuilt.sim.workload.originator_zipf_alpha,
                   mutated.sim.workload.originator_zipf_alpha);
  EXPECT_EQ(rebuilt.sim.workload.catalog_size,
            mutated.sim.workload.catalog_size);
  EXPECT_DOUBLE_EQ(rebuilt.sim.workload.catalog_zipf_alpha,
                   mutated.sim.workload.catalog_zipf_alpha);
  EXPECT_EQ(rebuilt.sim.pricer, mutated.sim.pricer);
  EXPECT_EQ(rebuilt.sim.policy, mutated.sim.policy);
  EXPECT_EQ(rebuilt.sim.cache_capacity, mutated.sim.cache_capacity);
  EXPECT_DOUBLE_EQ(rebuilt.sim.free_rider_share,
                   mutated.sim.free_rider_share);
  EXPECT_EQ(rebuilt.sim.amortize_each_step, mutated.sim.amortize_each_step);
  EXPECT_EQ(rebuilt.sim.swap.amortization_per_tick,
            mutated.sim.swap.amortization_per_tick);
  EXPECT_EQ(rebuilt.sim.swap.payment_threshold,
            mutated.sim.swap.payment_threshold);
  EXPECT_EQ(rebuilt.sim.swap.disconnect_threshold,
            mutated.sim.swap.disconnect_threshold);
  EXPECT_EQ(rebuilt.sim.max_route_hops, mutated.sim.max_route_hops);
  EXPECT_EQ(rebuilt.agents, mutated.agents);
  EXPECT_EQ(rebuilt.trace_out, mutated.trace_out);
  EXPECT_EQ(rebuilt.trace_in, mutated.trace_in);
}

TEST(Binding, UnknownKeyIsAnError) {
  ExperimentConfig cfg;
  const std::string err = table().apply(cfg, "nodez", "1000");
  EXPECT_NE(err.find("unknown parameter"), std::string::npos) << err;
  EXPECT_EQ(cfg.topology.node_count, 1000u);  // untouched default
}

TEST(Binding, RetiredRoutingAndLedgerKeysAreUnknown) {
  // The greedy walk and the hash-map ledger are test oracles now, not
  // run-time choices: a config that still selects either fails loudly
  // instead of silently running the compiled path.
  for (const char* key : {"compiled_routing", "compiled_ledger"}) {
    EXPECT_EQ(table().find(key), nullptr) << key;
    for (const char* value : {"true", "false"}) {
      ExperimentConfig cfg;
      const std::string err = table().apply(cfg, key, value);
      EXPECT_NE(err.find("unknown parameter"), std::string::npos)
          << key << "=" << value << ": " << err;
    }
  }
}

TEST(Binding, MalformedValueIsAnErrorAndDoesNotMutate) {
  ExperimentConfig cfg;
  const std::size_t before = cfg.topology.node_count;
  EXPECT_NE(table().apply(cfg, "nodes", "many"), "");
  EXPECT_NE(table().apply(cfg, "nodes", "12.5"), "");
  EXPECT_NE(table().apply(cfg, "nodes", "-4"), "");
  EXPECT_EQ(cfg.topology.node_count, before);

  EXPECT_NE(table().apply(cfg, "originators", "1.5"), "");
  EXPECT_NE(table().apply(cfg, "originators", "0"), "");
  EXPECT_NE(table().apply(cfg, "free_riders", "-0.1"), "");
  EXPECT_NE(table().apply(cfg, "policy", "bribery"), "");
  EXPECT_NE(table().apply(cfg, "flow_level", "maybe"), "");
  EXPECT_NE(table().apply(cfg, "bits", "40"), "");
}

TEST(Binding, ZipfExponentsMustBeFiniteAndNonNegative) {
  // NaN passes a plain `< 0` test; zipf_s=nan used to run as zipf_s=inf,
  // every chunk drawn from catalog rank 0.
  for (const char* key : {"zipf", "catalog_zipf", "zipf_s"}) {
    for (const char* value : {"nan", "NaN", "-nan", "inf", "-inf",
                              "infinity", "-0.5"}) {
      ExperimentConfig cfg;
      const ExperimentConfig before = cfg;
      EXPECT_NE(table().apply(cfg, key, value), "") << key << "=" << value;
      EXPECT_EQ(table().snapshot(cfg), table().snapshot(before))
          << key << "=" << value;
    }
    ExperimentConfig cfg;
    EXPECT_EQ(table().apply(cfg, key, "0"), "") << key;
    EXPECT_EQ(table().apply(cfg, key, "40"), "") << key;
  }
}

TEST(Binding, NoNumericKeyTakesANaNOrAnInfinity) {
  // Range checks written as `x < lo || x > hi` let NaN through:
  // originators=nan used to run with a NaN originator share.
  for (const char* key :
       {"originators", "upload_share", "burst_share", "diurnal_period",
        "diurnal_amp", "free_riders", "link_capacity", "bandwidth_cost",
        "revision_rate", "noise", "initial_free_riders"}) {
    ASSERT_NE(table().find(key), nullptr) << key;
    for (const char* value : {"nan", "inf", "-inf"}) {
      ExperimentConfig cfg;
      EXPECT_NE(table().apply(cfg, key, value), "") << key << "=" << value;
      EXPECT_EQ(table().snapshot(cfg), table().snapshot(ExperimentConfig{}))
          << key << "=" << value;
    }
  }
}

TEST(Binding, CatalogFitsTheZipfGuideIndex) {
  ExperimentConfig cfg;
  EXPECT_EQ(table().apply(cfg, "catalog", "4294967295"), "");
  EXPECT_EQ(cfg.sim.workload.catalog_size, 4294967295u);
  for (const char* value : {"4294967296", "10000000000"}) {
    EXPECT_NE(table().apply(cfg, "catalog", value), "") << value;
    EXPECT_EQ(cfg.sim.workload.catalog_size, 4294967295u) << value;
  }
}

TEST(Binding, ApplyAllReportsEveryErrorAndSkipsReserved) {
  ExperimentConfig cfg;
  Config args;
  args.set("nodes", "500");
  args.set("k", "broken");
  args.set("unknown_key", "1");
  args.set("out", "somewhere");  // reserved: not a binding, not an error

  const std::vector<std::string> reserved{"out"};
  const auto errors = table().apply_all(cfg, args, reserved);
  ASSERT_EQ(errors.size(), 2u);
  EXPECT_EQ(cfg.topology.node_count, 500u);  // the good key still applied
}

TEST(Binding, ValidateCatchesCrossFieldConstraints) {
  ExperimentConfig cfg;
  EXPECT_EQ(validate(cfg), "");

  cfg.topology.node_count = 2000;
  cfg.topology.address_bits = 10;  // 2^10 = 1024 addresses < 2000 nodes
  EXPECT_NE(validate(cfg), "");
  cfg.topology.address_bits = 16;
  EXPECT_EQ(validate(cfg), "");

  cfg.sim.workload.min_chunks_per_file = 100;
  cfg.sim.workload.max_chunks_per_file = 10;
  EXPECT_NE(validate(cfg), "");
  cfg.sim.workload.max_chunks_per_file = 100;
  EXPECT_EQ(validate(cfg), "");

  cfg.sim.swap.payment_threshold = Token(10);
  cfg.sim.swap.disconnect_threshold = Token(5);
  EXPECT_NE(validate(cfg), "");
  cfg.sim.swap.disconnect_threshold = Token(10);
  EXPECT_EQ(validate(cfg), "");

  cfg.trace_in = "a.csv";
  cfg.trace_out = "b.csv";
  EXPECT_NE(validate(cfg), "");
  cfg.trace_out.clear();
  EXPECT_EQ(validate(cfg), "");

  // Each demand kind reads one Zipf exponent; setting the other does
  // nothing, so it is an error that names the knob that applies.
  cfg.sim.demand.zipf_s = 1.5;
  EXPECT_TRUE(validate(cfg).starts_with("zipf_s:")) << validate(cfg);
  EXPECT_NE(validate(cfg).find("catalog_zipf="), std::string::npos);
  cfg.sim.demand.kind = workload::DemandConfig::Kind::kZipf;
  EXPECT_EQ(validate(cfg), "");
  cfg.sim.workload.catalog_zipf_alpha = 1.5;
  EXPECT_TRUE(validate(cfg).starts_with("catalog_zipf:")) << validate(cfg);
  EXPECT_NE(validate(cfg).find("zipf_s="), std::string::npos);
  cfg.sim.demand = workload::DemandConfig{};
  EXPECT_EQ(validate(cfg), "");  // the catalog's own exponent applies
}

TEST(Binding, WorkloadGenerationCategoryCoversTheGeneratorKnobs) {
  // The replay sweep guard derives from this flag; a generator key left
  // unmarked would silently produce identical replayed cells.
  for (const char* key : {"files", "originators", "min_chunks", "max_chunks",
                          "upload_share", "zipf", "catalog", "catalog_zipf"}) {
    ASSERT_NE(table().find(key), nullptr) << key;
    EXPECT_TRUE(table().find(key)->workload_generation) << key;
  }
  for (const char* key : {"nodes", "k", "policy", "seed", "epochs",
                          "trace_in", "cache"}) {
    ASSERT_NE(table().find(key), nullptr) << key;
    EXPECT_FALSE(table().find(key)->workload_generation) << key;
  }
}

TEST(Binding, AgentKeysEnforceTheirRanges) {
  ExperimentConfig cfg;
  EXPECT_NE(table().apply(cfg, "dynamics", "replicator"), "");
  EXPECT_NE(table().apply(cfg, "revision_rate", "1.5"), "");
  EXPECT_NE(table().apply(cfg, "noise", "-0.1"), "");
  EXPECT_NE(table().apply(cfg, "bandwidth_cost", "-5"), "");
  EXPECT_NE(table().apply(cfg, "initial_free_riders", "2"), "");
  EXPECT_NE(table().apply(cfg, "files_per_epoch", "0"), "");
  EXPECT_EQ(cfg.agents, core::AgentsConfig{});  // nothing mutated
}

TEST(Binding, SnapshotRendersCanonicalValues) {
  core::ExperimentConfig cfg = core::paper_config(4, 0.2);
  bool saw_k = false, saw_originators = false;
  for (const auto& [key, value] : table().snapshot(cfg)) {
    if (key == "k") {
      EXPECT_EQ(value, "4");
      saw_k = true;
    }
    if (key == "originators") {
      EXPECT_EQ(value, "0.2");
      saw_originators = true;
    }
  }
  EXPECT_TRUE(saw_k);
  EXPECT_TRUE(saw_originators);
}

}  // namespace
}  // namespace fairswap::harness
