// The device catalog: the paper's four evaluation architectures (plus the
// unit-test bow-tie) with the aliases people actually type, the generic
// lattice generators, the extra architectures, and the `file:` JSON
// device loader. Every front end shares this one table.

#include <charconv>
#include <string>

#include "codar/arch/device_json.hpp"
#include "codar/arch/extra_devices.hpp"
#include "codar/pipeline/device_registry.hpp"

namespace codar::pipeline {

namespace {

int parse_param(const std::string& spec, const std::string& text) {
  int n = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), n);
  if (ec != std::errc() || ptr != text.data() + text.size() || n <= 0) {
    throw UsageError("bad device parameter in '" + spec + "'");
  }
  return n;
}

/// Wraps a fixed preset factory into a catalog entry.
DeviceEntry preset(const std::string& name, std::string description,
                   std::vector<std::string> aliases,
                   arch::Device (*factory)()) {
  return {name, name, std::move(description), std::move(aliases),
          [factory](const std::string&, const std::string&) {
            return factory();
          }};
}

/// Wraps a one-int-parameter generator into a catalog entry.
DeviceEntry generator(std::string name, std::string spec,
                      std::string description,
                      arch::Device (*factory)(int param)) {
  return {std::move(name), std::move(spec), std::move(description), {},
          [factory](const std::string& full_spec, const std::string& arg) {
            return factory(parse_param(full_spec, arg));
          },
          /*takes_arg=*/true};
}

}  // namespace

DeviceRegistry::DeviceRegistry()
    : entries_{
          preset("q16", "IBM Q16 (2x8 lattice, 16 qubits)", {"ibm_q16"},
                 arch::ibm_q16),
          preset("tokyo",
                 "IBM Q20 Tokyo (4x5 lattice + diagonals, 20 qubits)",
                 {"q20", "ibm_q20_tokyo"}, arch::ibm_q20_tokyo),
          preset("enfield", "Enfield 6x6 square lattice (36 qubits)",
                 {"6x6", "enfield_6x6"}, arch::enfield_6x6),
          preset("sycamore",
                 "Google Q54 Sycamore diamond lattice (54 qubits)",
                 {"q54", "google_sycamore54"}, arch::google_sycamore54),
          preset("yorktown", "IBM Q5 bow-tie (5 qubits, unit tests)",
                 {"q5", "ibm_q5_yorktown"}, arch::ibm_q5_yorktown),
          // The reference large device: big enough (2500 qubits) that the
          // kAuto policy picks the on-demand distance oracle, and the
          // scaling benchmark exercises it by name.
          preset("grid-50x50",
                 "50 x 50 square lattice (2500 qubits, large-device "
                 "reference)",
                 {"grid50", "grid50x50"}, [] { return arch::grid(50, 50); }),
          {"grid", "grid:RxC", "R x C square lattice", {},
           [](const std::string& spec, const std::string& arg) {
             const std::size_t x = arg.find('x');
             if (x == std::string::npos || x == 0 || x + 1 >= arg.size()) {
               throw UsageError("grid expects grid:RxC, got '" + spec + "'");
             }
             return arch::grid(parse_param(spec, arg.substr(0, x)),
                               parse_param(spec, arg.substr(x + 1)));
           },
           /*takes_arg=*/true},
          generator("linear", "linear:N", "path graph on N qubits",
                    [](int n) { return arch::linear(n); }),
          generator("ring", "ring:N", "cycle graph on N qubits",
                    [](int n) { return arch::ring(n); }),
          generator("heavyhex", "heavyhex:D",
                    "IBM heavy-hex lattice, odd distance D >= 3",
                    [](int d) {
                      if (d < 3 || d % 2 == 0) {
                        throw UsageError(
                            "heavyhex distance must be odd and >= 3");
                      }
                      return arch::heavy_hex(d);
                    }),
          generator("octagons", "octagons:N",
                    "Rigetti Aspen chain of N fused octagons",
                    [](int n) { return arch::rigetti_octagons(n); }),
          generator("iontrap", "iontrap:N",
                    "trapped-ion all-to-all over N qubits",
                    [](int n) { return arch::ion_trap_all_to_all(n); }),
          // local_only: serve requests must send inline objects instead.
          {"file", "file:PATH.json",
           "JSON device description (graph, durations, fidelities, "
           "calibration; see README \"Device files\")",
           {},
           [](const std::string&, const std::string& arg) {
             return arch::load_device_file(arg);
           },
           /*takes_arg=*/true, /*local_only=*/true},
      } {}

const DeviceRegistry& DeviceRegistry::instance() {
  static const DeviceRegistry registry;
  return registry;
}

}  // namespace codar::pipeline
