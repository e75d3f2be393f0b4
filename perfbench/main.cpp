// perfbench: the repo benchmark's binary (run through run.py, which
// builds it). One process runs one workload:
//
//   perfbench --workload W --seed N --seconds S --trace 0|1 --workdir DIR
//             [--smoke] [--corrupt CHECK]
//
// It prints a readable table, then one JSON result line (the last line of
// stdout), and exits 0 only when every output check passed. run.py kills a
// run that outlives its deadline, so a hang fails the run without a result.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>

#include "common.hpp"

namespace {

using namespace perfbench;

struct Workload {
  const char* name;
  void (*run)(const Args&, Result&);
  /// Names accepted by --corrupt: each corrupts one output right before the
  /// check that must catch it (the self-test runs every one).
  const char* checks;
};

const Workload kWorkloads[] = {
    {"fit-matern", run_fit_matern, "box,evals,loglik"},
    {"factor-sqexp", run_factor_sqexp, "info,logdet"},
    {"serve", run_serve, "outcome,theta"},
    {"factor-ooc", run_factor_ooc, "info,peak,bitwise"},
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload W --seed N "
               "--seconds S --trace 0|1 --workdir DIR [--smoke] "
               "[--corrupt CHECK] | --list\n",
               why.c_str());
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  bool seen_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + a);
      return argv[++i];
    };
    try {
      if (a == "--workload") {
        args.workload = value();
      } else if (a == "--seed") {
        args.seed = std::stoull(value());
      } else if (a == "--seconds") {
        args.seconds = std::stod(value());
      } else if (a == "--trace") {
        const std::string v = value();
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        args.trace = v == "1";
        seen_trace = true;
      } else if (a == "--workdir") {
        args.workdir = value();
      } else if (a == "--smoke") {
        args.smoke = true;
      } else if (a == "--corrupt") {
        args.corrupt = value();
      } else if (a == "--list") {
        for (const Workload& w : kWorkloads) {
          std::printf("%s %s\n", w.name, w.checks);
        }
        return 0;
      } else {
        usage("unknown argument " + a);
      }
    } catch (const std::logic_error&) {
      usage("malformed value for " + a);
    }
  }
  const Workload* wl = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) wl = &w;
  }
  if (!wl) usage("unknown workload '" + args.workload + "'");
  if (!seen_trace) usage("--trace is required");
  if (!(args.seconds > 0)) usage("--seconds must be positive");
  if (!args.corrupt.empty() &&
      ("," + std::string(wl->checks) + ",").find("," + args.corrupt + ",") ==
          std::string::npos) {
    usage("workload " + args.workload + " has no check '" + args.corrupt +
          "'");
  }

  now_s();  // start the clock
  Result out(args.trace);
  try {
    wl->run(args, out);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", wl->name, e.what());
    out.check(false, std::string("exception: ") + e.what());
    out.op(false);
  }
  std::printf("# perfbench %s seed=%llu seconds=%g trace=%d%s\n", wl->name,
              (unsigned long long)args.seed, args.seconds, int(args.trace),
              args.smoke ? " smoke" : "");
  out.print(wl->name);
  // A server whose drivers hung is left behind on purpose; exit without
  // running destructors that would join them.
  std::fflush(nullptr);
  std::_Exit(out.correct() && out.attempted() > 0 ? 0 : 1);
}
