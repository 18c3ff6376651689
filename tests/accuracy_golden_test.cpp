// Accuracy goldens: the reproduction's headline accuracy, pinned so that a
// change made for speed cannot quietly trade accuracy for time.
//
// Paper stamps.  Each paper room (office, library, hall) is built at the
// eight testbed seeds 1000-1007 and registered on a default Engine from
// its day-0 survey.  At each of the five update stamps (3, 5, 15, 45 and
// 90 days) one fresh survey (eval::collect_update_request) is scored under
// two protocols:
//   - reconstruct: Engine::reconstruct() against the registration
//     snapshot, committing nothing (the protocol of Figs. 18, 19, 21, 22);
//   - update: Engine::update() with the stamps committed in order on the
//     one engine, scored on the committed database (what a site serves).
// Four figures score each database:
//   - recon median / p90: |x_hat - truth| in dB over the reconstructed
//     (mask = 0) entries;
//   - loc median / p90: OMP localization error in metres, one 5-sample
//     online measurement per grid cell.
// A golden is the mean of one figure over the eight seeds, per room,
// protocol and stamp, plus one row per protocol with the seed mean of
// each figure averaged over all rooms and stamps.
//
// Tolerances.  Each golden allows 3 SD / sqrt(8), SD being the seed
// standard deviation of that figure when the value was recorded: three
// standard errors of an 8-seed mean.  A shift inside that band cannot be
// told apart from drawing eight other seeds, so it says nothing about
// accuracy; a shift beyond it is an accuracy change.  The recorded SDs
// run from 0.09 to 1.3, so every band is orders of magnitude wider than
// the ulp-level differences between the kernel dispatch levels, and the
// goldens hold at each of them.
//
// Mini trace.  The replay of the checked-in data/traces/mini/ dataset
// (trace::run_replay_files on a default Engine) scores 12 queries.  It is
// one deterministic run with no seed spread, so its median and p90 allow
// one cell pitch (0.6 m): a band any narrower would pin one query's
// answer, not the replay's accuracy.
//
// The values were recorded at the default solver options.  A golden value
// changes only with a change whose purpose is accuracy, which records the
// before/after numbers.  The suite prints every figure with its seed SD,
// so such a change can re-derive the bands.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "api/engine.hpp"
#include "eval/cdf.hpp"
#include "eval/experiment.hpp"
#include "parallel/thread_pool.hpp"
#include "sim/testbeds.hpp"
#include "trace/replay.hpp"

namespace iup {
namespace {

constexpr std::uint64_t kFirstSeed = 1000;
constexpr std::size_t kSeeds = 8;
constexpr std::size_t kStamps = 5;

enum Room : std::size_t { kOffice, kLibrary, kHall, kRooms };
enum Protocol : std::size_t { kReconstruct, kUpdate, kProtocols };

constexpr const char* kRoomNames[kRooms] = {"office", "library", "hall"};
constexpr const char* kProtocolNames[kProtocols] = {"reconstruct", "update"};

/// The four figures that score one database.
struct Figures {
  double recon_median_db = 0.0;
  double recon_p90_db = 0.0;
  double loc_median_m = 0.0;
  double loc_p90_m = 0.0;
};

/// One (room, seed): figures per protocol and stamp.
using RunFigures = std::array<std::array<Figures, kStamps>, kProtocols>;

sim::Testbed make_room(Room room, std::uint64_t seed) {
  switch (room) {
    case kOffice:
      return sim::make_office_testbed(seed);
    case kLibrary:
      return sim::make_library_testbed(seed);
    default:
      return sim::make_hall_testbed(seed);
  }
}

Figures score(const eval::EnvironmentRun& run, const linalg::Matrix& database,
              std::size_t day) {
  const eval::EmpiricalCdf recon(
      eval::score_reconstruction(run, database, day).abs_errors_db);
  const eval::EmpiricalCdf loc(eval::localization_errors(
      run, database, eval::LocalizerKind::kOmp, day, 5));
  return {recon.median(), recon.percentile(0.9), loc.median(),
          loc.percentile(0.9)};
}

RunFigures run_room(Room room, std::uint64_t seed) {
  const eval::EnvironmentRun run(make_room(room, seed));
  api::Engine engine;
  eval::register_run(engine, run, "room").value();
  const std::vector<CellId> cells = engine.reference_cells("room").value();
  const std::vector<std::size_t>& days = sim::paper_update_stamps();
  std::vector<api::UpdateRequest> requests;
  for (const std::size_t day : days) {
    requests.push_back(eval::collect_update_request(run, "room", cells, day));
  }
  RunFigures out;
  for (std::size_t k = 0; k < kStamps; ++k) {
    out[kReconstruct][k] =
        score(run, engine.reconstruct(requests[k]).value().x_hat(), days[k]);
  }
  for (std::size_t k = 0; k < kStamps; ++k) {
    out[kUpdate][k] = score(
        run, engine.update(requests[k]).value().snapshot->database(), days[k]);
  }
  return out;
}

/// Every (room, seed) run, computed once for the whole suite.  The runs
/// share nothing, so they fan out over the hardware threads; job k is
/// room k % 3, which spreads the rooms' unequal costs over the chunks.
const std::vector<RunFigures>& all_runs() {
  static const std::vector<RunFigures> runs = [] {
    std::vector<RunFigures> out(kRooms * kSeeds);
    parallel::parallel_for(
        parallel::resolve_threads(0), out.size(),
        [&](std::size_t begin, std::size_t end) {
          for (std::size_t k = begin; k < end; ++k) {
            out[k] = run_room(Room(k % kRooms), kFirstSeed + k / kRooms);
          }
        });
    return out;
  }();
  return runs;
}

struct Pinned {
  double value;
  double tol;
};

/// The four pinned figures of `room` at `day`; room kAllRooms with day 0
/// pins their mean over every room and stamp, a seed mean of 15 values
/// whose band is correspondingly tighter.
struct Golden {
  Room room;
  std::size_t day;
  Pinned recon_median_db, recon_p90_db, loc_median_m, loc_p90_m;
};
constexpr Room kAllRooms = kRooms;

/// Mean and sample SD over the seeds of `per_seed(s)`, s = 0..kSeeds-1.
struct SeedStats {
  double mean = 0.0;
  double sd = 0.0;
};

template <typename PerSeed>
SeedStats seed_stats(PerSeed per_seed) {
  std::array<double, kSeeds> v{};
  SeedStats st;
  for (std::size_t s = 0; s < kSeeds; ++s) {
    v[s] = per_seed(s);
    st.mean += v[s] / kSeeds;
  }
  double ss = 0.0;
  for (const double x : v) ss += (x - st.mean) * (x - st.mean);
  st.sd = std::sqrt(ss / (kSeeds - 1));
  return st;
}

/// The run of `room` at seed index s.
const RunFigures& run_of(Room room, std::size_t s) {
  return all_runs()[s * kRooms + room];
}

void check_goldens(Protocol protocol, const std::vector<Golden>& goldens) {
  const std::vector<std::size_t>& days = sim::paper_update_stamps();
  ASSERT_EQ(goldens.size(), kRooms * kStamps + 1);
  for (const Golden& g : goldens) {
    const std::size_t stamp =
        std::find(days.begin(), days.end(), g.day) - days.begin();
    const bool all = g.room == kAllRooms;
    ASSERT_TRUE(all ? g.day == 0 : stamp < kStamps) << g.day;
    const struct {
      const char* name;
      double Figures::*field;
      Pinned pinned;
    } rows[] = {{"recon median dB", &Figures::recon_median_db,
                 g.recon_median_db},
                {"recon p90 dB", &Figures::recon_p90_db, g.recon_p90_db},
                {"loc median m", &Figures::loc_median_m, g.loc_median_m},
                {"loc p90 m", &Figures::loc_p90_m, g.loc_p90_m}};
    for (const auto& row : rows) {
      const SeedStats st = seed_stats([&](std::size_t s) {
        if (!all) return run_of(g.room, s)[protocol][stamp].*row.field;
        double sum = 0.0;
        for (std::size_t r = 0; r < kRooms; ++r) {
          for (const Figures& f : run_of(Room(r), s)[protocol]) {
            sum += f.*row.field;
          }
        }
        return sum / (kRooms * kStamps);
      });
      const std::string where =
          all ? std::string("all rooms, stamps")
              : kRoomNames[g.room] + std::string(" day ") +
                    std::to_string(g.day);
      std::printf("%-11s %-18s %-15s %8.4f  (golden %8.4f +- %.3f, "
                  "seed SD %.4f)\n",
                  kProtocolNames[protocol], where.c_str(), row.name, st.mean,
                  row.pinned.value, row.pinned.tol, st.sd);
      EXPECT_NEAR(st.mean, row.pinned.value, row.pinned.tol)
          << kProtocolNames[protocol] << ' ' << where << ' ' << row.name;
    }
  }
}

// Recorded at the 60-sweep fixed trajectory (scalar dispatch level).
// Columns: recon median dB, recon p90 dB, loc median m, loc p90 m, each
// {seed mean, 3 SD / sqrt(8)}.
TEST(AccuracyGolden, ReconstructProtocolAtThePaperStamps) {
  check_goldens(
      kReconstruct,
      {
        {kOffice, 3,
         {0.9973, 0.159}, {2.3791, 0.219}, {1.4250, 0.442}, {4.5750, 0.330}},
        {kOffice, 5,
         {1.2005, 0.315}, {2.8815, 0.674}, {1.6125, 0.448}, {4.5738, 0.501}},
        {kOffice, 15,
         {1.2745, 0.233}, {3.3254, 0.481}, {1.6875, 0.415}, {4.6500, 0.241}},
        {kOffice, 45,
         {1.8520, 0.527}, {5.1047, 1.058}, {1.8750, 0.532}, {4.5657, 0.287}},
        {kOffice, 90,
         {1.8625, 0.286}, {6.6376, 1.017}, {1.9875, 0.509}, {4.9304, 0.529}},
        {kLibrary, 3,
         {1.4082, 0.348}, {3.1800, 0.499}, {1.8583, 0.383}, {4.5675, 0.470}},
        {kLibrary, 5,
         {1.4017, 0.485}, {3.3230, 0.503}, {1.5750, 0.584}, {4.4025, 0.586}},
        {kLibrary, 15,
         {1.6805, 0.392}, {4.0526, 0.748}, {1.8304, 0.353}, {4.7175, 0.407}},
        {kLibrary, 45,
         {2.0318, 0.386}, {5.6925, 1.225}, {2.0625, 0.523}, {4.7937, 0.755}},
        {kLibrary, 90,
         {2.2241, 0.266}, {7.0746, 1.416}, {2.1000, 0.341}, {4.8205, 0.416}},
        {kHall, 3,
         {0.8807, 0.242}, {2.0990, 0.456}, {2.1000, 0.511}, {5.9400, 0.634}},
        {kHall, 5,
         {0.9720, 0.169}, {2.3088, 0.440}, {2.1375, 0.316}, {5.6400, 0.318}},
        {kHall, 15,
         {1.1478, 0.370}, {2.6196, 0.604}, {2.4750, 0.442}, {5.9625, 0.404}},
        {kHall, 45,
         {1.6396, 0.437}, {4.0134, 0.961}, {2.6625, 0.397}, {6.0300, 0.571}},
        {kHall, 90,
         {1.8860, 0.417}, {4.8241, 1.196}, {2.6625, 0.316}, {6.0225, 0.656}},
        {kAllRooms, 0,
         {1.4973, 0.157}, {3.9677, 0.421}, {2.0034, 0.162}, {5.0794, 0.197}},
      });
}

TEST(AccuracyGolden, CommittedUpdateChainAtThePaperStamps) {
  check_goldens(
      kUpdate,
      {
        {kOffice, 3,
         {0.9973, 0.159}, {2.3791, 0.219}, {1.4250, 0.442}, {4.5750, 0.330}},
        {kOffice, 5,
         {1.3559, 0.403}, {3.2479, 0.795}, {1.5750, 0.474}, {4.6488, 0.414}},
        {kOffice, 15,
         {1.5060, 0.258}, {3.7927, 0.434}, {1.7625, 0.432}, {4.7250, 0.442}},
        {kOffice, 45,
         {2.0658, 0.397}, {5.4771, 0.665}, {2.0250, 0.330}, {4.6875, 0.338}},
        {kOffice, 90,
         {2.2580, 0.336}, {6.9205, 0.738}, {2.2430, 0.541}, {5.0625, 0.464}},
        {kLibrary, 3,
         {1.4082, 0.348}, {3.1800, 0.499}, {1.8583, 0.383}, {4.5675, 0.470}},
        {kLibrary, 5,
         {1.7066, 0.633}, {3.8690, 0.812}, {1.7682, 0.393}, {4.7700, 0.325}},
        {kLibrary, 15,
         {1.8203, 0.350}, {4.4172, 0.656}, {1.7250, 0.371}, {4.5600, 0.453}},
        {kLibrary, 45,
         {2.2785, 0.470}, {5.9463, 1.162}, {2.0625, 0.316}, {4.7506, 0.351}},
        {kLibrary, 90,
         {2.5570, 0.379}, {7.4943, 0.989}, {2.0321, 0.393}, {4.7175, 0.531}},
        {kHall, 3,
         {0.8807, 0.242}, {2.0990, 0.456}, {2.1000, 0.511}, {5.9400, 0.634}},
        {kHall, 5,
         {1.1370, 0.372}, {2.5274, 0.674}, {2.1000, 0.295}, {5.7075, 0.333}},
        {kHall, 15,
         {1.2243, 0.247}, {2.9967, 0.333}, {2.5125, 0.415}, {5.8650, 0.550}},
        {kHall, 45,
         {1.7004, 0.281}, {4.0821, 0.606}, {2.6250, 0.330}, {6.3075, 0.464}},
        {kHall, 90,
         {1.9776, 0.295}, {5.1388, 0.758}, {2.6625, 0.316}, {6.1500, 0.450}},
        {kAllRooms, 0,
         {1.6583, 0.146}, {4.2379, 0.352}, {2.0318, 0.126}, {5.1356, 0.096}},
      });
}

TEST(AccuracyGolden, MiniTraceReplayCdf) {
  const std::string dir = std::string(IUP_SOURCE_DIR) + "/data/traces/mini/";
  api::Engine engine;
  const auto report =
      trace::run_replay_files(engine, dir + "fingerprint.csv",
                              dir + "observations.csv", dir + "queries.csv");
  ASSERT_TRUE(report.ok()) << report.status().to_string();
  const eval::EmpiricalCdf cdf = report.value().error_cdf();
  ASSERT_EQ(cdf.size(), 12u);
  std::printf("mini replay: median %.4f m, p90 %.4f m\n", cdf.median(),
              cdf.percentile(0.9));
  EXPECT_NEAR(cdf.median(), 1.2, 0.6);
  EXPECT_NEAR(cdf.percentile(0.9), 3.6, 0.6);
}

}  // namespace
}  // namespace iup
