/**
 * @file
 * Tests of the Chrome trace-event exporter: structural JSON sanity,
 * event counts, and content checks against the recorded schedule;
 * and that it and the metrics registry quote any name as JSON.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/dynamic_policy.hh"
#include "core/policy.hh"
#include "cpu/machine_config.hh"
#include "obs/chrome_trace.hh"
#include "simrt/sim_runtime.hh"
#include "stream/builder.hh"
#include "util/json.hh"
#include "util/stats.hh"

namespace {

using tt::cpu::MachineConfig;
using tt::stream::PairSpec;
using tt::stream::StreamProgramBuilder;
using tt::stream::TaskGraph;

std::size_t
countOccurrences(const std::string &haystack, const std::string &needle)
{
    std::size_t count = 0;
    for (std::size_t pos = haystack.find(needle);
         pos != std::string::npos;
         pos = haystack.find(needle, pos + needle.size())) {
        ++count;
    }
    return count;
}

TEST(TraceExport, EmitsOneEventPerTaskPlusCountersAndMetadata)
{
    const auto cfg = MachineConfig::i7_860_1dimm();
    StreamProgramBuilder builder;
    builder.beginPhase("alpha");
    builder.addPairs(6, [](int) {
        PairSpec spec;
        spec.bytes = 64 * 1024;
        spec.compute_cycles = 50000;
        return spec;
    });
    const TaskGraph graph = std::move(builder).build();
    tt::core::StaticMtlPolicy policy(2, cfg.contexts());
    const auto result = tt::simrt::runOnce(cfg, graph, policy);

    const std::string json =
        tt::obs::chromeTraceString(
            tt::exec::toTraceData(graph, result));

    // Valid-ish JSON array with balanced braces.
    EXPECT_EQ(json.front(), '[');
    EXPECT_EQ(countOccurrences(json, "{"),
              countOccurrences(json, "}"));

    // 12 duration events (6 memory + 6 compute).
    EXPECT_EQ(countOccurrences(json, "\"ph\":\"X\""), 12u);
    EXPECT_EQ(countOccurrences(json, "\"cat\":\"memory\""), 6u);
    EXPECT_EQ(countOccurrences(json, "\"cat\":\"compute\""), 6u);

    // One MTL counter sample (static policy: set once at t=0).
    EXPECT_EQ(countOccurrences(json, "\"name\":\"MTL\""), 1u);

    // Phase name propagated into args.
    EXPECT_GT(countOccurrences(json, "\"phase\":\"alpha\""), 0u);

    // Context metadata rows for every used context.
    EXPECT_GE(countOccurrences(json, "thread_name"), 1u);
}

TEST(TraceExport, DynamicPolicyProducesMtlCounterTrack)
{
    const auto cfg = MachineConfig::i7_860_1dimm();
    StreamProgramBuilder builder;
    builder.beginPhase("p");
    builder.addPairs(64, [](int) {
        PairSpec spec;
        spec.bytes = 128 * 1024;
        spec.compute_cycles = 400000;
        return spec;
    });
    const TaskGraph graph = std::move(builder).build();
    tt::core::DynamicThrottlePolicy policy(cfg.contexts(), 8);
    const auto result = tt::simrt::runOnce(cfg, graph, policy);

    const std::string json =
        tt::obs::chromeTraceString(
            tt::exec::toTraceData(graph, result));
    // The adaptive policy changes MTL at least once after t=0.
    EXPECT_GE(countOccurrences(json, "\"name\":\"MTL\""), 2u);
}

/**
 * Golden-structure check: parse the emitted document with the
 * bundled JSON parser and verify the trace-event schema field by
 * field, not by substring counting.
 */
TEST(TraceExport, GoldenStructureParsesAndMatchesSchema)
{
    const auto cfg = MachineConfig::i7_860_1dimm();
    StreamProgramBuilder builder;
    builder.beginPhase("p");
    builder.addPairs(48, [](int) {
        PairSpec spec;
        spec.bytes = 128 * 1024;
        spec.compute_cycles = 400000;
        return spec;
    });
    const TaskGraph graph = std::move(builder).build();
    tt::core::DynamicThrottlePolicy policy(cfg.contexts(), 8);
    const auto result = tt::simrt::runOnce(cfg, graph, policy);
    const std::string json =
        tt::obs::chromeTraceString(
            tt::exec::toTraceData(graph, result));

    std::string error;
    const auto doc = tt::json::parse(json, &error);
    ASSERT_TRUE(doc.has_value()) << error;
    ASSERT_TRUE(doc->isArray());

    std::size_t durations = 0;
    std::size_t counters = 0;
    std::size_t instants = 0;
    std::size_t metadata = 0;
    std::size_t flow_starts = 0;
    std::size_t flow_finishes = 0;
    for (const auto &event : doc->array) {
        ASSERT_TRUE(event.isObject());
        const std::string ph = event.stringAt("ph");
        const auto *args = event.find("args");
        if (ph == "X") {
            ++durations;
            EXPECT_GE(event.numberAt("ts", -1.0), 0.0);
            EXPECT_GE(event.numberAt("dur", -1.0), 0.0);
            ASSERT_NE(args, nullptr);
            EXPECT_GE(args->numberAt("mtl"), 1.0);
            EXPECT_EQ(args->stringAt("phase"), "p");
        } else if (ph == "C") {
            ++counters;
            ASSERT_NE(args, nullptr);
        } else if (ph == "i") {
            ++instants;
            // Policy decision instants carry the audit payload.
            EXPECT_EQ(event.stringAt("cat"), "policy");
            ASSERT_NE(args, nullptr);
            EXPECT_GE(args->numberAt("to_mtl"), 1.0);
            EXPECT_NE(args->find("predicted_speedup"), nullptr);
            EXPECT_NE(args->find("idle_bound"), nullptr);
        } else if (ph == "s") {
            // One span flow start per job, on the arrivals track.
            ++flow_starts;
            EXPECT_EQ(event.stringAt("cat"), "job");
            ASSERT_NE(args, nullptr);
            EXPECT_EQ(args->stringAt("outcome"), "completed");
            EXPECT_GE(args->numberAt("attempts"), 1.0);
        } else if (ph == "f") {
            ++flow_finishes;
            EXPECT_EQ(event.stringAt("cat"), "job");
            EXPECT_EQ(event.stringAt("bp"), "e");
        } else {
            EXPECT_EQ(ph, "M");
            ++metadata;
        }
    }
    EXPECT_EQ(durations, 96u); // 48 memory + 48 compute slices
    EXPECT_GE(counters, 1u);
    EXPECT_GE(metadata, 1u);
    // The adaptive run made decisions; each one became an instant.
    EXPECT_EQ(instants, result.decisions.size());
    EXPECT_GE(instants, 1u);
    // Every job's span became one arrival->completion flow arrow.
    EXPECT_EQ(flow_starts, 48u);
    EXPECT_EQ(flow_finishes, 48u);
}

/** A run with no events still round-trips as valid, empty JSON. */
TEST(TraceExport, EmptyRunRoundTripsThroughParser)
{
    const tt::obs::TraceData empty;
    const std::string json = tt::obs::chromeTraceString(empty);
    std::string error;
    const auto doc = tt::json::parse(json, &error);
    ASSERT_TRUE(doc.has_value()) << error;
    ASSERT_TRUE(doc->isArray());
    for (const auto &event : doc->array)
        EXPECT_EQ(event.stringAt("ph"), "M"); // metadata only, if any
}

TEST(TraceExport, EscapesAwkwardPhaseNames)
{
    const auto cfg = MachineConfig::i7_860_1dimm();
    StreamProgramBuilder builder;
    builder.beginPhase("weird \"quoted\\name");
    builder.addPairs(1, [](int) {
        PairSpec spec;
        spec.bytes = 64;
        spec.compute_cycles = 10;
        return spec;
    });
    const TaskGraph graph = std::move(builder).build();
    tt::core::ConventionalPolicy policy(cfg.contexts());
    const auto result = tt::simrt::runOnce(cfg, graph, policy);
    const std::string json =
        tt::obs::chromeTraceString(
            tt::exec::toTraceData(graph, result));
    EXPECT_NE(json.find("weird \\\"quoted\\\\name"), std::string::npos);
}

/**
 * Names with control characters -- a tab and a \x01 -- still make
 * parseable JSON, in the metrics registry and in the Chrome trace
 * (phase and alert names), and read back as they were written.
 */
TEST(TraceExport, ControlCharactersInNamesRoundTrip)
{
    const std::string name = "tab\there\x01";
    std::string error;

    tt::MetricsRegistry metrics;
    metrics.add(name, 3);
    metrics.set(name, 0.5);
    metrics.observe(name, 1e-3);
    std::ostringstream registry;
    metrics.writeJson(registry);
    const auto doc = tt::json::parse(registry.str(), &error);
    ASSERT_TRUE(doc.has_value()) << error;
    for (const char *kind : {"counters", "gauges", "histograms"}) {
        const tt::json::Value *section = doc->find(kind);
        ASSERT_NE(section, nullptr) << kind;
        EXPECT_NE(section->find(name), nullptr) << kind;
    }

    tt::obs::TraceData data;
    data.phase_names = {name};
    tt::obs::TaskEvent event;
    event.task = 0;
    event.pair = 0;
    event.phase = 0;
    event.worker = 0;
    event.end = 1e-6;
    data.events = {event};
    tt::obs::AlertEvent alert;
    alert.rule = name;
    data.alerts = {alert};
    const auto trace =
        tt::json::parse(tt::obs::chromeTraceString(data), &error);
    ASSERT_TRUE(trace.has_value()) << error;
    bool saw_phase = false;
    bool saw_alert = false;
    for (const tt::json::Value &entry : trace->array) {
        if (const tt::json::Value *args = entry.find("args"))
            saw_phase |= args->stringAt("phase") == name;
        saw_alert |= entry.stringAt("name") == "alert " + name + " fired";
    }
    EXPECT_TRUE(saw_phase);
    EXPECT_TRUE(saw_alert);
}

} // namespace
