#include <exception>
#include <iostream>
#include <string>
#include <vector>

#include "tools/u1trace_cli.hpp"

int main(int argc, char** argv) {
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) args.emplace_back(argv[i]);
  try {
    return u1::cli::run(args, std::cout, std::cerr);
  } catch (const std::exception& e) {
    std::cerr << "u1trace: " << e.what() << "\n";
    return 1;
  }
}
