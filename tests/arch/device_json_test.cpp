// JSON device descriptions: schema acceptance and strictness, the
// load → serialize → reload fingerprint round-trip, and the guarantee
// that a JSON clone of a preset routes byte-identically to the preset.

#include "codar/arch/device_json.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "codar/core/codar_router.hpp"
#include "codar/workloads/generators.hpp"

namespace codar::arch {
namespace {

TEST(DeviceJson, ParsesMinimalDescription) {
  const Device dev = device_from_json_text(
      R"({"qubits": 3, "edges": [[0, 1], [1, 2]]})");
  EXPECT_EQ(dev.name, "json device");
  EXPECT_EQ(dev.graph.num_qubits(), 3);
  EXPECT_EQ(dev.graph.num_edges(), 2u);
  EXPECT_TRUE(dev.graph.connected(0, 1));
  EXPECT_FALSE(dev.graph.has_coordinates());
  // Defaults: superconducting durations, ideal fidelities, no calibration.
  EXPECT_EQ(dev.durations.of(ir::GateKind::kCX), 2);
  EXPECT_EQ(dev.fidelities.of(ir::GateKind::kCX), 1.0);
  EXPECT_TRUE(dev.calibration.empty());
}

TEST(DeviceJson, ParsesFullDescription) {
  const Device dev = device_from_json_text(R"({
    "name": "bowtie",
    "qubits": 3,
    "edges": [[0, 1], [1, 2]],
    "coordinates": [[0, 0], [0, 1], [0, 2]],
    "durations": {"1q": 2, "2q": 12, "swap": 36, "measure": 3,
                  "kinds": {"h": 1}},
    "fidelities": {"1q": 0.993, "2q": 0.973, "measure": 0.995,
                   "kinds": {"cz": 0.9}},
    "calibration": {
      "qubits": [{"qubit": 1, "duration_1q": 5, "fidelity_readout": 0.9}],
      "edges": [{"edge": [1, 2], "duration_2q": 20, "fidelity_2q": 0.95}]
    }
  })");
  EXPECT_EQ(dev.name, "bowtie");
  EXPECT_TRUE(dev.graph.has_coordinates());
  EXPECT_EQ(dev.graph.coordinate(2).col, 2);
  // Broadcast helpers apply before per-kind overrides.
  EXPECT_EQ(dev.durations.of(ir::GateKind::kX), 2);
  EXPECT_EQ(dev.durations.of(ir::GateKind::kH), 1);
  EXPECT_EQ(dev.durations.of(ir::GateKind::kCX), 12);
  EXPECT_EQ(dev.durations.of(ir::GateKind::kSwap), 36);
  EXPECT_EQ(dev.durations.of(ir::GateKind::kMeasure), 3);
  EXPECT_DOUBLE_EQ(dev.fidelities.of(ir::GateKind::kCX), 0.973);
  EXPECT_DOUBLE_EQ(dev.fidelities.of(ir::GateKind::kCZ), 0.9);
  EXPECT_DOUBLE_EQ(dev.fidelities.of(ir::GateKind::kMeasure), 0.995);
  EXPECT_EQ(dev.calibration.duration_1q(1), 5);
  EXPECT_EQ(dev.calibration.fidelity_readout(1), 0.9);
  EXPECT_EQ(dev.calibration.duration_2q(2, 1), 20);
  EXPECT_EQ(dev.calibration.fidelity_2q(1, 2), 0.95);
}

TEST(DeviceJson, TwoQubitBroadcastDerivesSwapAndToffoli) {
  // Like the fidelity helper's f^3 / f^6: "2q" keeps the three-CX
  // convention for the composites, so an ion-trap-style file without an
  // explicit "swap" cannot end up with SWAP cheaper than one CX.
  const Device dev = device_from_json_text(
      R"({"qubits": 2, "edges": [[0, 1]], "durations": {"2q": 12}})");
  EXPECT_EQ(dev.durations.of(ir::GateKind::kCX), 12);
  EXPECT_EQ(dev.durations.of(ir::GateKind::kSwap), 36);
  EXPECT_EQ(dev.durations.of(ir::GateKind::kCCX), 72);

  // Explicit "swap" / "kinds" still win over the derived values.
  const Device pinned = device_from_json_text(
      R"({"qubits": 2, "edges": [[0, 1]],
          "durations": {"2q": 12, "swap": 20, "kinds": {"ccx": 50}}})");
  EXPECT_EQ(pinned.durations.of(ir::GateKind::kSwap), 20);
  EXPECT_EQ(pinned.durations.of(ir::GateKind::kCCX), 50);
}

TEST(DeviceJson, RejectsMalformedDescriptions) {
  // Syntax error.
  EXPECT_THROW(device_from_json_text("{"), std::invalid_argument);
  // Structural errors — strict schema.
  EXPECT_THROW(device_from_json_text("[]"), std::invalid_argument);
  EXPECT_THROW(device_from_json_text(R"({"edges": []})"),
               std::invalid_argument);  // missing qubits
  EXPECT_THROW(device_from_json_text(R"({"qubits": 2})"),
               std::invalid_argument);  // missing edges
  EXPECT_THROW(device_from_json_text(R"({"qubits": 0, "edges": []})"),
               std::invalid_argument);
  // The qubit cap bounds what a hostile serve request can force the
  // server to allocate (large devices use the bounded on-demand oracle,
  // so the cap is 65536, not the old matrix-bound 4096).
  EXPECT_THROW(
      device_from_json_text(R"({"qubits": 1000000, "edges": []})"),
      std::invalid_argument);
  {
    // A connected 65536-qubit chain parses: the cap admits devices far
    // beyond the old 4096 matrix bound.
    std::string big = R"({"qubits": 65536, "edges": [)";
    for (int q = 0; q + 1 < 65536; ++q) {
      if (q > 0) big += ',';
      big += '[' + std::to_string(q) + ',' + std::to_string(q + 1) + ']';
    }
    big += "]}";
    EXPECT_NO_THROW(device_from_json_text(big));
  }
  EXPECT_THROW(
      device_from_json_text(R"({"qubits": 2, "edges": [[0, 2]]})"),
      std::invalid_argument);  // endpoint out of range
  EXPECT_THROW(
      device_from_json_text(R"({"qubits": 2, "edges": [[1, 1]]})"),
      std::invalid_argument);  // self edge
  EXPECT_THROW(
      device_from_json_text(
          R"({"qubits": 2, "edges": [[0, 1], [1, 0]]})"),
      std::invalid_argument);  // duplicate edge
  EXPECT_THROW(
      device_from_json_text(
          R"({"qubits": 2, "edges": [[0, 1]], "qbits": 3})"),
      std::invalid_argument);  // unknown key
  EXPECT_THROW(
      device_from_json_text(
          R"({"qubits": 2, "edges": [[0, 1]], "edges": [[0, 1]]})"),
      std::invalid_argument);  // duplicate key
  EXPECT_THROW(
      device_from_json_text(
          R"({"qubits": 2, "edges": [[0, 1]],
              "coordinates": [[0, 0]]})"),
      std::invalid_argument);  // coordinate count mismatch
  EXPECT_THROW(
      device_from_json_text(
          R"({"qubits": 2, "edges": [[0, 1]],
              "coordinates": [[4294967296, 0], [0, 1]]})"),
      std::invalid_argument);  // coordinate would truncate through int
  EXPECT_THROW(
      device_from_json_text(
          R"({"qubits": 2, "edges": [[0, 1]],
              "durations": {"kinds": {"warp": 1}}})"),
      std::invalid_argument);  // unknown gate kind
  EXPECT_THROW(
      device_from_json_text(
          R"({"qubits": 2, "edges": [[0, 1]],
              "fidelities": {"2q": 1.5}})"),
      std::invalid_argument);  // fidelity out of range
  EXPECT_THROW(
      device_from_json_text(
          R"({"qubits": 3, "edges": [[0, 1], [0, 2]],
              "calibration": {"edges": [
                {"edge": [1, 2], "duration_2q": 4}]}})"),
      std::invalid_argument);  // calibrated edge is not a coupler
  EXPECT_THROW(
      device_from_json_text(
          R"({"qubits": 2, "edges": [[0, 1]],
              "calibration": {"qubits": [{"qubit": 0}]}})"),
      std::invalid_argument);  // entry without any override
  // Conflicting duplicate calibration entries must not silently
  // last-one-wins ([1, 0] normalizes onto [0, 1]).
  EXPECT_THROW(
      device_from_json_text(
          R"({"qubits": 2, "edges": [[0, 1]],
              "calibration": {"edges": [
                {"edge": [0, 1], "duration_2q": 4},
                {"edge": [1, 0], "duration_2q": 9}]}})"),
      std::invalid_argument);
  EXPECT_THROW(
      device_from_json_text(
          R"({"qubits": 2, "edges": [[0, 1]],
              "calibration": {"qubits": [
                {"qubit": 1, "duration_1q": 2},
                {"qubit": 1, "duration_1q": 3}]}})"),
      std::invalid_argument);
  // Routers require a connected graph; the loader rejects disconnected
  // descriptions with a schema-level message instead of leaking the
  // routers' internal precondition.
  try {
    device_from_json_text(R"({"qubits": 4, "edges": [[0, 1], [2, 3]]})");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("must be connected"),
              std::string::npos)
        << e.what();
  }
}

TEST(DeviceJson, FidelityErrorsNameTheOffendingEntry) {
  // (0, 1] validation with a clear error naming the entry: zero, negative
  // and >1 all reject, and the message says *which* field was bad.
  auto expect_names = [](const char* text, const char* entry) {
    try {
      device_from_json_text(text);
      FAIL() << "expected invalid_argument for " << entry;
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(entry), std::string::npos) << what;
      EXPECT_NE(what.find("(0, 1]"), std::string::npos) << what;
    }
  };
  expect_names(R"({"qubits": 2, "edges": [[0, 1]],
                   "fidelities": {"2q": 0}})",
               "'fidelities.2q'");
  expect_names(R"({"qubits": 2, "edges": [[0, 1]],
                   "fidelities": {"kinds": {"cx": -0.5}}})",
               "'fidelities.kinds.cx'");
  expect_names(R"({"qubits": 2, "edges": [[0, 1]],
                   "calibration": {"qubits": [
                     {"qubit": 0, "fidelity_readout": 0}]}})",
               "'fidelity_readout'");
  expect_names(R"({"qubits": 2, "edges": [[0, 1]],
                   "calibration": {"edges": [
                     {"edge": [0, 1], "fidelity_2q": 1.0001}]}})",
               "'fidelity_2q'");
}

TEST(DeviceJson, ParsesAndRoundTripsCoherence) {
  const Device dev = device_from_json_text(
      R"({"qubits": 2, "edges": [[0, 1]],
          "coherence": {"t1": 8000, "t2": 4500.5}})");
  EXPECT_TRUE(dev.coherence.any_finite());
  EXPECT_DOUBLE_EQ(dev.coherence.t1, 8000.0);
  EXPECT_DOUBLE_EQ(dev.coherence.t2, 4500.5);

  // An omitted channel stays infinite (ideal).
  const Device t2_only = device_from_json_text(
      R"({"qubits": 2, "edges": [[0, 1]], "coherence": {"t2": 500}})");
  EXPECT_TRUE(std::isinf(t2_only.coherence.t1));
  EXPECT_DOUBLE_EQ(t2_only.coherence.t2, 500.0);

  // Canonical round trip, fingerprint included.
  const std::string text = device_to_json(dev);
  const Device reloaded = device_from_json_text(text);
  EXPECT_EQ(reloaded.coherence, dev.coherence);
  EXPECT_EQ(reloaded.fingerprint(), dev.fingerprint());
  EXPECT_EQ(device_to_json(reloaded), text);

  // A finite-coherence device never aliases its ideal twin in the route
  // cache, but an ideal device keeps its historical v2 fingerprint.
  const Device ideal = device_from_json_text(
      R"({"qubits": 2, "edges": [[0, 1]]})");
  EXPECT_NE(dev.fingerprint(), ideal.fingerprint());

  // Validation: non-positive, non-finite and unknown-key coherence.
  EXPECT_THROW(device_from_json_text(
                   R"({"qubits": 2, "edges": [[0, 1]],
                       "coherence": {"t2": 0}})"),
               std::invalid_argument);
  EXPECT_THROW(device_from_json_text(
                   R"({"qubits": 2, "edges": [[0, 1]],
                       "coherence": {"t1": -5}})"),
               std::invalid_argument);
  EXPECT_THROW(device_from_json_text(
                   R"({"qubits": 2, "edges": [[0, 1]],
                       "coherence": {"t3": 10}})"),
               std::invalid_argument);
}

TEST(DeviceJson, RoundTripPreservesFingerprints) {
  // load(serialize(d)) must fingerprint identically — names included —
  // for every paper preset...
  for (const Device& dev : {ibm_q16(), enfield_6x6(), ibm_q20_tokyo(),
                            google_sycamore54()}) {
    const std::string text = device_to_json(dev);
    const Device reloaded = device_from_json_text(text);
    EXPECT_EQ(reloaded.name, dev.name);
    EXPECT_EQ(reloaded.fingerprint(), dev.fingerprint()) << dev.name;
    // ... and the serialization itself must be canonical: a second
    // round trip renders the same bytes.
    EXPECT_EQ(device_to_json(reloaded), text) << dev.name;
  }
}

TEST(DeviceJson, RoundTripPreservesCalibration) {
  Device dev = ibm_q5_yorktown();
  dev.name = "calibrated yorktown";
  dev.fidelities = FidelityMap::superconducting();
  dev.calibration.set_duration_1q(0, 2);
  dev.calibration.set_duration_readout(4, 6);
  dev.calibration.set_duration_2q(2, 3, 9);
  dev.calibration.set_fidelity_1q(1, 0.9987);
  dev.calibration.set_fidelity_readout(1, 0.91);
  dev.calibration.set_fidelity_2q(0, 2, 0.953);

  const std::string text = device_to_json(dev);
  const Device reloaded = device_from_json_text(text);
  EXPECT_EQ(reloaded.fingerprint(), dev.fingerprint());
  EXPECT_EQ(reloaded.calibration, dev.calibration);
  EXPECT_EQ(device_to_json(reloaded), text);
}

TEST(DeviceJson, LoadDeviceFileReadsAndReportsPath) {
  const std::string path =
      testing::TempDir() + "/codar_device_json_test.json";
  {
    std::ofstream out(path);
    out << device_to_json(ibm_q20_tokyo());
  }
  const Device loaded = load_device_file(path);
  EXPECT_EQ(loaded.fingerprint(), ibm_q20_tokyo().fingerprint());
  std::remove(path.c_str());

  try {
    load_device_file(path);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos);
  }
}

/// The acceptance check of the device-file format: a JSON clone of the
/// tokyo preset is indistinguishable from the preset at the router level.
TEST(DeviceJson, TokyoCloneRoutesByteIdentically) {
  const Device preset = ibm_q20_tokyo();
  const Device clone = device_from_json_text(device_to_json(preset));
  ASSERT_EQ(clone.fingerprint(), preset.fingerprint());

  const ir::Circuit circuit = workloads::qft(14);
  const core::RoutingResult a = core::CodarRouter(preset).route(circuit);
  const core::RoutingResult b = core::CodarRouter(clone).route(circuit);
  ASSERT_EQ(a.circuit.size(), b.circuit.size());
  for (std::size_t i = 0; i < a.circuit.size(); ++i) {
    ASSERT_EQ(a.circuit.gate(i), b.circuit.gate(i)) << "gate " << i;
  }
  EXPECT_EQ(a.stats.swaps_inserted, b.stats.swaps_inserted);
  EXPECT_EQ(a.stats.router_makespan, b.stats.router_makespan);
}

}  // namespace
}  // namespace codar::arch
