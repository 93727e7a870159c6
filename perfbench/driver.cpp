// perfbench_driver: runs one benchmark workload repeatedly for a time
// budget and prints one JSON line per repeat on stdout. run.py turns the
// lines into medians, quartiles and correctness checks.
//
// Everything here is measured from outside the solvers: the driver times
// its own calls into public functions (step(), AsyncCheckpointer::
// checkpoint(), read_checkpoint() + restore_checkpoint()) and reads the
// accessors the solvers already expose (timers(), ledger(),
// rezone_stats(), rank_phase_seconds(), halo_bytes_sent(), writer()).
//
//   perfbench_driver --workload clamr_amr_l4 --seconds 20 --trace 0
//                    --size full --out <dir>
//   perfbench_driver --triad
//
// With --trace 1 the driver alternates untraced and traced repeats; the
// traced ones run inside an obs::trace_start/trace_stop session, and run.py
// takes the per-layer figures from them. --triad measures the host's
// STREAM-triad bandwidth over arrays of at least four times the last-level
// cache.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/linecut.hpp"
#include "compress/fixedrate.hpp"
#include "fp/governor.hpp"
#include "io/async_checkpoint.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "par/dist_shallow.hpp"
#include "sem/dgsem.hpp"
#include "shallow/solver.hpp"
#include "util/threads.hpp"
#include "util/timing.hpp"

using namespace tp;

namespace {

constexpr double kMiB = 1024.0 * 1024.0;

struct Options {
    std::string workload;
    std::string size = "full";
    std::string out = ".";
    double seconds = 10.0;
    bool trace = false;
    bool triad = false;
};

// ---------------------------------------------------------------------------
// Small helpers

std::string number_array(const std::vector<double>& v) {
    std::string s = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
        if (i != 0) s.push_back(',');
        obs::json::append_number(s, v[i]);
    }
    s.push_back(']');
    return s;
}

double mean(const std::vector<double>& v) {
    if (v.empty()) return 0.0;
    double s = 0.0;
    for (double x : v) s += x;
    return s / static_cast<double>(v.size());
}

/// Named per-layer figures of one repeat, in insertion order.
using Layers = std::vector<std::pair<std::string, double>>;

std::string layers_json(const Layers& layers) {
    obs::json::Object o;
    for (const auto& [name, value] : layers) o.field(name, value);
    return o.str();
}

/// Delta of one ledger kernel across the solve, rendered as computed
/// rates: bytes and flops come from the solvers' array-size accounting,
/// not from hardware counters.
struct KernelDelta {
    double seconds = 0.0;
    double bytes = 0.0;
    double flops = 0.0;
    [[nodiscard]] double gbs() const {
        return seconds > 0.0 ? bytes / seconds * 1e-9 : 0.0;
    }
    [[nodiscard]] double gflops() const {
        return seconds > 0.0 ? flops / seconds * 1e-9 : 0.0;
    }
    [[nodiscard]] double flop_per_byte() const {
        return bytes > 0.0 ? flops / bytes : 0.0;
    }
};

perf::KernelWork kernel_or_zero(const perf::WorkLedger& ledger,
                                const std::string& name) {
    const perf::KernelWork* w = ledger.find(name);
    return w ? *w : perf::KernelWork{};
}

KernelDelta kernel_delta(const perf::KernelWork& before,
                         const perf::KernelWork& after) {
    KernelDelta d;
    d.seconds = after.seconds - before.seconds;
    d.bytes = static_cast<double>((after.bytes + after.bytes_compute) -
                                  (before.bytes + before.bytes_compute));
    d.flops = static_cast<double>(after.flops() - before.flops());
    return d;
}

double timer_delta(const util::StopwatchRegistry& now,
                   const util::StopwatchRegistry& before,
                   const std::string& name) {
    return now.total(name) - before.total(name);
}

/// Build with `make` and time it, as the workload's set-up.
template <typename Make>
auto timed_setup(const Make& make, double& setup_s) {
    util::WallTimer w;
    TP_OBS_SPAN("perfbench.setup");
    auto built = make();
    setup_s = w.elapsed_seconds();
    return built;
}

/// Every workload's repeat produces one of these; emit() prints it.
struct Repeat {
    bool traced = false;
    double setup_s = 0.0;
    double wall_s = 0.0;
    std::vector<double> step_ms;
    double mass_drift_rel = 0.0;
    std::string storage;  // "float" | "double"
    double checkpoint_mib = 0.0;
    std::vector<double> cut;
    std::vector<std::pair<std::string, std::string>> raw_checks;
    Layers layers;
};

void emit(const std::string& workload, int index, const Repeat& r) {
    obs::json::Object checks;
    for (const auto& [name, json] : r.raw_checks) checks.field_raw(name, json);
    std::string line = obs::json::Object()
                           .field("type", "repeat")
                           .field("workload", workload)
                           .field("repeat", index)
                           .field("traced", r.traced)
                           .field("setup_s", r.setup_s)
                           .field("wall_s", r.wall_s)
                           .field("mass_drift_rel", r.mass_drift_rel)
                           .field("storage", r.storage)
                           .field("checkpoint_mib", r.checkpoint_mib)
                           .field_raw("step_ms", number_array(r.step_ms))
                           .field_raw("cut", number_array(r.cut))
                           .field_raw("checks", checks.str())
                           .field_raw("layers", layers_json(r.layers))
                           .str();
    std::fputs(line.c_str(), stdout);
    std::fputc('\n', stdout);
    std::fflush(stdout);
}

template <typename T>
const char* storage_name() {
    return sizeof(T) == sizeof(float) ? "float" : "double";
}

// ---------------------------------------------------------------------------
// clamr_amr_l4: cylindrical dam break on the AMR mesh, minimum precision.

struct AmrParams {
    int grid, levels, steps;
};

Repeat run_amr(const AmrParams& p) {
    using Solver = shallow::MinimumShallowSolver;
    Repeat r;
    r.storage = storage_name<Solver::storage_t>();

    shallow::Config cfg;
    cfg.geom = {0.0, 0.0, 100.0, 100.0, p.grid, p.grid, p.levels};
    cfg.rezone_interval = 4;
    const std::unique_ptr<Solver> solver = timed_setup(
        [&cfg] {
            auto s = std::make_unique<Solver>(cfg);
            s->initialize_dam_break(shallow::DamBreak{});
            return s;
        },
        r.setup_s);

    const double mass0 = solver->total_mass();
    const util::StopwatchRegistry timers0 = solver->timers();
    const perf::KernelWork fd0 =
        kernel_or_zero(solver->ledger(), "finite_diff");
    const auto rz0 = solver->rezone_stats();

    std::vector<double> plain_ms, rezone_ms;
    double cells_sum = 0.0;
    r.step_ms.reserve(static_cast<std::size_t>(p.steps));
    util::WallTimer wall;
    for (int s = 0; s < p.steps; ++s) {
        const std::uint64_t rezones = solver->rezone_stats().rezones;
        util::WallTimer st;
        {
            TP_OBS_SPAN("perfbench.step");
            solver->step();
        }
        const double ms = st.elapsed_seconds() * 1e3;
        r.step_ms.push_back(ms);
        (solver->rezone_stats().rezones != rezones ? rezone_ms : plain_ms)
            .push_back(ms);
        cells_sum += static_cast<double>(solver->mesh().num_cells());
    }
    r.wall_s = wall.elapsed_seconds();

    r.mass_drift_rel = std::fabs((solver->total_mass() - mass0) / mass0);
    r.checkpoint_mib = static_cast<double>(solver->checkpoint_bytes()) / kMiB;

    // Center line-cut at finest-cell centers (the dam_break --cut layout).
    const auto& g = cfg.geom;
    const auto ys = analysis::face_free_positions(
        0.0, g.height, g.coarse_ny << g.max_level);
    const double x0 = g.xmin + 0.5 * g.width +
                      0.25 * g.width / (g.coarse_nx << g.max_level);
    for (const double y : ys) r.cut.push_back(solver->height_at(x0, y));

    const auto& t = solver->timers();
    const auto& rz = solver->rezone_stats();
    const KernelDelta fd =
        kernel_delta(fd0, kernel_or_zero(solver->ledger(), "finite_diff"));
    const double plain = mean(plain_ms);
    const double rezone = mean(rezone_ms);
    const double resolved = static_cast<double>(rz.resolved_cells -
                                                rz0.resolved_cells);
    const double translated = static_cast<double>(rz.translated_cells -
                                                  rz0.translated_cells);
    const double finite_diff_s = timer_delta(t, timers0, "finite_diff");
    const double cfl_s = timer_delta(t, timers0, "cfl");
    const double flags_s = timer_delta(t, timers0, "rezone_flags");
    const double adapt_s = timer_delta(t, timers0, "rezone_adapt");
    const double remap_s = timer_delta(t, timers0, "rezone_remap");
    const double cache_s = timer_delta(t, timers0, "rezone_cache");
    r.layers = {
        {"shallow.plain_step_ms", plain},
        {"shallow.flux_sweep_s", timer_delta(t, timers0, "flux_sweep")},
        {"shallow.finite_diff_s", finite_diff_s},
        {"shallow.cfl_s", cfl_s},
        {"shallow.finite_diff_gbs", fd.gbs()},
        {"shallow.finite_diff_gflops", fd.gflops()},
        {"shallow.flop_per_byte", fd.flop_per_byte()},
        {"shallow.cells_mean", cells_sum / std::max(1, p.steps)},
        {"mesh.rezone_step_ms", rezone},
        {"mesh.rezone_extra_ms", rezone_ms.empty() ? 0.0 : rezone - plain},
        {"mesh.rezone_flags_s", flags_s},
        {"mesh.rezone_adapt_s", adapt_s},
        {"mesh.rezone_remap_s", remap_s},
        {"mesh.rezone_cache_s", cache_s},
        {"mesh.resolved_share",
         resolved + translated > 0.0 ? resolved / (resolved + translated)
                                     : 0.0},
        {"mesh.cells_touched",
         static_cast<double>(rz.cells_touched - rz0.cells_touched)},
        {"layer_s",
         finite_diff_s + cfl_s + flags_s + adapt_s + remap_s + cache_s},
    };
    return r;
}

// ---------------------------------------------------------------------------
// clamr_dist_512: uniform dam break on virtual ranks, mixed precision.

struct DistParams {
    int grid, ranks, steps;
};

Repeat run_dist(const DistParams& p, const std::string& restart_base) {
    using Solver = par::DistributedShallowSolver<fp::MixedPrecision>;
    Repeat r;
    r.storage = storage_name<Solver::storage_t>();

    par::DistConfig cfg;
    cfg.nx = cfg.ny = p.grid;
    cfg.ranks = p.ranks;
    const std::unique_ptr<Solver> solver = timed_setup(
        [&cfg] {
            auto s = std::make_unique<Solver>(cfg);
            s->initialize_dam_break();
            return s;
        },
        r.setup_s);

    const double mass0 = solver->total_mass();
    const util::StopwatchRegistry timers0 = solver->timers();
    const perf::KernelWork up0 =
        kernel_or_zero(solver->ledger(), "dist_update");
    const std::uint64_t halo0 = solver->halo_bytes_sent();

    // Per step: each phase's max over ranks, and the critical-path
    // imbalance (slowest rank minus mean rank), as tp_report computes it.
    double post = 0, pre = 0, interior = 0, wait = 0, boundary = 0;
    double sum_t = 0, sum_imb = 0;
    util::WallTimer wall;
    for (int s = 0; s < p.steps; ++s) {
        util::WallTimer st;
        {
            TP_OBS_SPAN("perfbench.step");
            solver->step();
        }
        r.step_ms.push_back(st.elapsed_seconds() * 1e3);
        const auto& rp = solver->rank_phase_seconds();
        double m_post = 0, m_pre = 0, m_int = 0, m_wait = 0, m_bnd = 0;
        double t_step = 0, total_sum = 0;
        for (const auto& x : rp) {
            m_post = std::max(m_post, x.post);
            m_pre = std::max(m_pre, x.precompute);
            m_int = std::max(m_int, x.interior);
            m_wait = std::max(m_wait, x.wait);
            m_bnd = std::max(m_bnd, x.boundary);
            t_step = std::max(t_step, x.total());
            total_sum += x.total();
        }
        post += m_post;
        pre += m_pre;
        interior += m_int;
        wait += m_wait;
        boundary += m_bnd;
        sum_t += t_step;
        if (!rp.empty())
            sum_imb += t_step - total_sum / static_cast<double>(rp.size());
    }
    r.wall_s = wall.elapsed_seconds();

    r.mass_drift_rel = std::fabs((solver->total_mass() - mass0) / mass0);
    r.raw_checks.emplace_back("comm_drained",
                              solver->comm_drained() ? "true" : "false");

    // Vertical line-cut through the domain center column.
    const std::vector<double> h = solver->gather_height();
    const auto n = static_cast<std::size_t>(p.grid);
    for (std::size_t j = 0; j < n; ++j) r.cut.push_back(h[j * n + n / 2]);

    // The sharded restart set a user of this solver writes (untimed): its
    // size is the workload's storage cost.
    r.checkpoint_mib =
        static_cast<double>(solver->write_restart(restart_base).written_bytes) /
        kMiB;

    const auto& t = solver->timers();
    const double steps = std::max(1, p.steps);
    const KernelDelta up =
        kernel_delta(up0, kernel_or_zero(solver->ledger(), "dist_update"));
    double layer_s = 0.0;
    for (const char* phase : {"halo_pack", "precompute", "interior",
                              "halo_wait", "boundary", "rebalance"})
        layer_s += timer_delta(t, timers0, phase);
    r.layers = {
        {"par.step_ms", mean(r.step_ms)},
        {"par.post_s", post / steps},
        {"par.precompute_s", pre / steps},
        {"par.interior_s", interior / steps},
        {"par.wait_s", wait / steps},
        {"par.boundary_s", boundary / steps},
        {"par.imbalance_share", sum_t > 0.0 ? sum_imb / sum_t : 0.0},
        {"par.halo_mib",
         static_cast<double>(solver->halo_bytes_sent() - halo0) / kMiB},
        {"par.dist_update_gbs", up.gbs()},
        {"par.dist_update_gflops", up.gflops()},
        {"layer_s", layer_s},
    };
    return r;
}

// ---------------------------------------------------------------------------
// self_bubble_ckpt: thermal bubble, full precision, async drift-compressed
// checkpoints every K steps, then a restart read of the last file.

struct BubbleParams {
    int elements, order, steps, interval;
};

/// Exact state of a SEM solver as doubles, via an uncompressed (v1)
/// checkpoint round trip through memory.
template <typename Solver>
sem::SemCheckpointData exact_state(const Solver& solver) {
    std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
    solver.write_checkpoint(ss);
    return Solver::read_checkpoint(ss);
}

Repeat run_bubble(const BubbleParams& p, const std::string& dir) {
    using Solver = sem::SpectralEulerSolver<fp::FullPrecision>;
    using Checkpointer = io::AsyncCheckpointer<Solver>;
    Repeat r;
    r.storage = storage_name<Solver::storage_t>();
    const io::CheckpointOptions opt = io::parse_checkpoint_compress(
        "drift", fp::GovernorConfig{}.drift_budget_ulp);

    sem::SemConfig cfg;
    cfg.nx = cfg.ny = cfg.nz = p.elements;
    cfg.order = p.order;
    const sem::ThermalBubble bubble;
    struct Setup {
        std::unique_ptr<Solver> solver;
        std::unique_ptr<Checkpointer> ckpt;
    };
    const Setup setup = timed_setup(
        [&] {
            Setup x{std::make_unique<Solver>(cfg),
                    std::make_unique<Checkpointer>(opt)};
            x.solver->initialize_thermal_bubble(bubble);
            return x;
        },
        r.setup_s);
    Solver* const solver = setup.solver.get();
    Checkpointer* const ckpt = setup.ckpt.get();

    const double mass0 = solver->total_mass_perturbation();
    const util::StopwatchRegistry timers0 = solver->timers();
    const perf::KernelWork vol0 = kernel_or_zero(solver->ledger(), "volume");

    std::vector<double> clean_ms, overlap_ms, call_ms;
    std::string last_path;
    util::WallTimer wall;
    for (int s = 0; s < p.steps; ++s) {
        const bool in_flight =
            ckpt->writer().completed() < ckpt->writer().submitted();
        util::WallTimer st;
        {
            TP_OBS_SPAN("perfbench.step");
            solver->step();
        }
        const double ms = st.elapsed_seconds() * 1e3;
        r.step_ms.push_back(ms);
        (in_flight ? overlap_ms : clean_ms).push_back(ms);
        if (solver->step_count() % p.interval == 0) {
            last_path = dir + "/bubble.ckpt." +
                        std::to_string(solver->step_count());
            util::WallTimer ct;
            TP_OBS_SPAN("perfbench.checkpoint");
            ckpt->checkpoint(*solver, last_path);
            call_ms.push_back(ct.elapsed_seconds() * 1e3);
        }
    }
    util::WallTimer drain_timer;
    {
        TP_OBS_SPAN("perfbench.checkpoint_drain");
        ckpt->finish();  // rethrows the first writer-thread error
    }
    const double drain_s = drain_timer.elapsed_seconds();
    r.wall_s = wall.elapsed_seconds();

    r.mass_drift_rel =
        std::fabs((solver->total_mass_perturbation() - mass0) / mass0);
    const double file_bytes =
        last_path.empty()
            ? 0.0
            : static_cast<double>(std::filesystem::file_size(last_path));
    r.checkpoint_mib = file_bytes / kMiB;
    const int nsamples = 257;
    r.cut = solver->sample_density_anomaly_x(0.5 * cfg.ly, bubble.center_z,
                                             nsamples);

    // Restart read of the last file into a fresh solver, checked against
    // the live state within what drift mode promises for each array: the
    // ULP budget of the storage type at the array's peak, or, where no
    // rate can meet that, the error bound of the maximum rate.
    double restart_s = 0.0;
    if (!last_path.empty()) {
        Solver restored(cfg);
        util::WallTimer rt;
        {
            TP_OBS_SPAN("perfbench.restart_read");
            std::ifstream is(last_path, std::ios::binary);
            if (!is)
                throw std::runtime_error("restart: cannot open " + last_path);
            restored.restore_checkpoint(Solver::read_checkpoint(is));
        }
        restart_s = rt.elapsed_seconds();
        const sem::SemCheckpointData live = exact_state(*solver);
        const sem::SemCheckpointData back = exact_state(restored);
        std::vector<double> err, bound;
        for (int v = 0; v < sem::kVars; ++v) {
            const double peak = io::peak_abs(live.q[v]);
            const double ulp = std::ldexp(
                1.0, std::ilogb(peak) + 1 -
                         io::storage_digits_v<Solver::storage_t>);
            double e = back.q[v].size() == live.q[v].size() ? 0.0 : INFINITY;
            for (std::size_t k = 0; k < live.q[v].size() && std::isfinite(e);
                 ++k)
                e = std::max(e, std::fabs(back.q[v][k] - live.q[v][k]));
            err.push_back(e);
            bound.push_back(
                peak > 0.0
                    ? std::max(static_cast<double>(opt.drift_budget_ulp) * ulp,
                               compress::error_bound(peak, 32))
                    : 0.0);
        }
        r.raw_checks.emplace_back(
            "restart",
            obs::json::Object()
                .field("same_step", back.step == solver->step_count())
                .field_raw("max_abs_err", number_array(err))
                .field_raw("bound", number_array(bound))
                .str());
    }

    const auto& t = solver->timers();
    const KernelDelta vol =
        kernel_delta(vol0, kernel_or_zero(solver->ledger(), "volume"));
    double sem_s = 0.0;
    for (const auto& [name, e] : t.entries())
        sem_s += e.total_seconds - timers0.total(name);
    double calls_s = 0.0;
    for (double ms : call_ms) calls_s += ms * 1e-3;
    const double raw_bytes = static_cast<double>(solver->checkpoint_bytes());
    r.layers = {
        {"sem.clean_step_ms", mean(clean_ms)},
        {"sem.volume_s", timer_delta(t, timers0, "volume")},
        {"sem.surface_s", timer_delta(t, timers0, "surface")},
        {"sem.filter_s", timer_delta(t, timers0, "filter")},
        {"sem.rk_s", timer_delta(t, timers0, "rk_update")},
        {"sem.cfl_s", timer_delta(t, timers0, "cfl")},
        {"sem.volume_gbs", vol.gbs()},
        {"sem.volume_gflops", vol.gflops()},
        {"io.checkpoint_call_ms", mean(call_ms)},
        {"io.stall_s", ckpt->stall_seconds()},
        {"io.overlap_step_ms", mean(overlap_ms)},
        {"io.writer_busy_s", ckpt->writer().busy_seconds()},
        {"io.drain_s", drain_s},
        {"io.restart_read_s", restart_s},
        {"compress.ratio", file_bytes > 0.0 ? raw_bytes / file_bytes : 0.0},
        {"layer_s", sem_s + calls_s + drain_s},
    };
    return r;
}

// ---------------------------------------------------------------------------
// Host STREAM triad: a[i] = b[i] + s * c[i] over arrays of at least four
// times the last-level cache, best of five passes after a warm-up pass
// (STREAM's rule).

int run_triad() {
    long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
    if (llc <= 0) llc = sysconf(_SC_LEVEL2_CACHE_SIZE);
    if (llc <= 0) {
        std::fprintf(stderr, "triad: last-level cache size unknown\n");
        return 1;
    }
    const std::size_t n =
        4 * static_cast<std::size_t>(llc) / sizeof(double) + 1024;
    std::vector<double> a(n), b(n), c(n);
    const auto sn = static_cast<std::int64_t>(n);
#pragma omp parallel for schedule(static)
    for (std::int64_t i = 0; i < sn; ++i) {
        a[static_cast<std::size_t>(i)] = 0.0;
        b[static_cast<std::size_t>(i)] = 1.0 + 1e-9 * static_cast<double>(i);
        c[static_cast<std::size_t>(i)] = 2.0;
    }
    const double s = 3.0;
    double best = 0.0;
    for (int pass = 0; pass < 6; ++pass) {
        util::WallTimer t;
        double* pa = a.data();
        const double* pb = b.data();
        const double* pc = c.data();
#pragma omp parallel for schedule(static)
        for (std::int64_t i = 0; i < sn; ++i) pa[i] = pb[i] + s * pc[i];
        const double sec = t.elapsed_seconds();
        if (pass > 0) best = std::max(best, 3.0 * sizeof(double) *
                                                static_cast<double>(n) /
                                                sec * 1e-9);
    }
    // Touch the result so the passes cannot be dropped.
    const double check = a[n / 2] + a[n - 1];
    std::printf("%s\n",
                obs::json::Object()
                    .field("type", "triad")
                    .field("triad_gbs", best)
                    .field("array_mib", static_cast<double>(n) * 8.0 / kMiB)
                    .field("llc_mib", static_cast<double>(llc) / kMiB)
                    .field("threads", util::max_threads())
                    .field("check", check)
                    .str()
                    .c_str());
    return 0;
}

// ---------------------------------------------------------------------------

Options parse(int argc, char** argv) {
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                throw std::invalid_argument("missing value for " + a);
            return argv[++i];
        };
        if (a == "--workload") {
            o.workload = value();
        } else if (a == "--seconds") {
            o.seconds = std::stod(value());
        } else if (a == "--trace") {
            o.trace = value() == "1";
        } else if (a == "--size") {
            o.size = value();
        } else if (a == "--out") {
            o.out = value();
        } else if (a == "--triad") {
            o.triad = true;
        } else {
            throw std::invalid_argument("unknown argument " + a);
        }
    }
    if (o.size != "full" && o.size != "tiny")
        throw std::invalid_argument("--size must be full or tiny");
    if (!(o.seconds > 0.0))
        throw std::invalid_argument("--seconds must be positive");
    return o;
}

int run(const Options& o) {
    const bool tiny = o.size == "tiny";
    std::function<Repeat()> once;
    if (o.workload == "clamr_amr_l4") {
        const AmrParams p = tiny ? AmrParams{24, 2, 24}
                                 : AmrParams{96, 4, 200};
        once = [p] { return run_amr(p); };
    } else if (o.workload == "clamr_dist_512") {
        const DistParams p = tiny ? DistParams{64, 8, 24}
                                  : DistParams{512, 8, 200};
        const std::string base = o.out + "/dist.restart";
        once = [p, base] { return run_dist(p, base); };
    } else if (o.workload == "self_bubble_ckpt") {
        const BubbleParams p = tiny ? BubbleParams{2, 4, 10, 5}
                                    : BubbleParams{6, 7, 200, 5};
        once = [p, dir = o.out] { return run_bubble(p, dir); };
    } else {
        throw std::invalid_argument("unknown workload '" + o.workload + "'");
    }

    const std::string trace_path = o.out + "/" + o.workload + ".trace.json";
    std::uint64_t dropped = 0;
    int index = 0;
    util::WallTimer budget;
    // Repeat until the budget is spent. A traced run alternates untraced
    // and traced repeats, so the overhead share compares neighbours, and
    // stops only after a whole pair.
    while (true) {
        const bool traced = o.trace && index % 2 == 1;
        const bool out_of_time = budget.elapsed_seconds() >= o.seconds;
        if (out_of_time && (!o.trace || (index > 0 && !traced))) break;
        if (traced) obs::trace_start(trace_path);
        Repeat r = once();
        if (traced) {
            obs::trace_stop();
            dropped += obs::trace_dropped_events();
        }
        r.traced = traced;
        emit(o.workload, index, r);
        ++index;
    }
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    obs::json::Object fin;
    fin.field("type", "final")
        .field("workload", o.workload)
        .field("repeats", index)
        .field("threads", util::max_threads())
        .field("peak_rss_mib", static_cast<double>(ru.ru_maxrss) / 1024.0)
        .field("trace_dropped", dropped);
    std::printf("%s\n", fin.str().c_str());
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    try {
        const Options o = parse(argc, argv);
        // At most four solver threads, so hosts with more cores run the
        // same team as the 4-core machine the bounds were measured on.
        util::set_threads(std::min(4, util::hardware_threads()));
        if (o.triad) return run_triad();
        std::filesystem::create_directories(o.out);
        return run(o);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
        return 1;
    }
}
