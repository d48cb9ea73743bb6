// Entry point of the `codar` binary; all behavior lives in codar::cli so
// the integration tests can drive it in-process.

#include <iostream>
#include <string>
#include <vector>

#include "codar/cli/driver.hpp"

int main(int argc, char** argv) {
  // Nothing here uses C stdio, and a synced std::cin has no buffer of its
  // own, so stdio `codar serve` could read only one byte per call. Once
  // unsynced, a stream is not safe to use from two threads at once: serve
  // writes std::cout from its workers, so reading std::cin or writing
  // std::cerr must no longer flush std::cout as a tied stream does.
  std::ios_base::sync_with_stdio(false);
  std::cin.tie(nullptr);
  std::cerr.tie(nullptr);
  return codar::cli::run_cli({argv + 1, argv + argc}, std::cin, std::cout,
                             std::cerr);
}
