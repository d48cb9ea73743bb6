// Entry point of the `codar` binary; all behavior lives in codar::cli so
// the integration tests can drive it in-process.

#include <iostream>
#include <string>
#include <vector>

#include "codar/cli/driver.hpp"

int main(int argc, char** argv) {
  return codar::cli::run_cli({argv + 1, argv + argc}, std::cin, std::cout,
                             std::cerr);
}
