#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "src/core/admission.h"
#include "tests/test_support.h"

namespace vafs {
namespace {

// A representative scattering average well under the worst case.
AdmissionControl TestAdmission() {
  const StorageTimings storage = TestStorage();
  return AdmissionControl(storage, storage.max_access_gap_sec / 10.0);
}

std::vector<RequestSpec> VideoRequests(int n, int64_t granularity = 4) {
  return std::vector<RequestSpec>(static_cast<size_t>(n),
                                  RequestSpec{TestVideo(), granularity});
}

TEST(AdmissionTest, RequestSpecDerivedQuantities) {
  RequestSpec spec{TestVideo(), 4};
  EXPECT_DOUBLE_EQ(spec.BlockBits(), 4.0 * 16384);
  EXPECT_DOUBLE_EQ(spec.BlockPlaybackDuration(), 4.0 / 30.0);
}

TEST(AdmissionTest, AnalysisMatchesEquations12To14) {
  AdmissionControl admission = TestAdmission();
  const StorageTimings storage = TestStorage();
  const auto requests = VideoRequests(3);
  const auto analysis = admission.Analyze(requests);
  const double transfer = 4.0 * 16384 / storage.transfer_rate_bits_per_sec;
  EXPECT_DOUBLE_EQ(analysis.alpha_sec, storage.max_access_gap_sec + transfer);    // Eq. 12
  EXPECT_DOUBLE_EQ(analysis.beta_sec, admission.avg_scattering_sec() + transfer); // Eq. 13
  EXPECT_DOUBLE_EQ(analysis.gamma_sec, 4.0 / 30.0);                               // Eq. 14
  EXPECT_GT(analysis.alpha_sec, analysis.beta_sec);  // l_seek_max >= l_ds_avg
  EXPECT_EQ(analysis.n, 3);
}

TEST(AdmissionTest, GammaIsTheFastestConsumer) {
  AdmissionControl admission = TestAdmission();
  std::vector<RequestSpec> requests = VideoRequests(1, 8);  // 8/30 s blocks
  requests.push_back(RequestSpec{TestVideo(), 2});          // 2/30 s blocks
  EXPECT_NEAR(admission.Analyze(requests).gamma_sec, 2.0 / 30.0, 1e-12);
}

TEST(AdmissionTest, Equation17ServiceCeiling) {
  AdmissionControl admission = TestAdmission();
  const auto analysis = admission.Analyze(VideoRequests(1));
  const int64_t expected =
      static_cast<int64_t>(std::ceil(analysis.gamma_sec / analysis.beta_sec)) - 1;
  EXPECT_EQ(analysis.n_max, expected);
  EXPECT_GE(analysis.n_max, 1);
  // Feasibility flips exactly past the ceiling.
  EXPECT_TRUE(admission.Feasible(VideoRequests(static_cast<int>(analysis.n_max))));
  EXPECT_FALSE(admission.Feasible(VideoRequests(static_cast<int>(analysis.n_max) + 1)));
}

TEST(AdmissionTest, Equation16SteadyStateK) {
  AdmissionControl admission = TestAdmission();
  const auto requests = VideoRequests(2);
  const auto analysis = admission.Analyze(requests);
  Result<int64_t> k = admission.SteadyStateBlocksPerRound(requests);
  ASSERT_TRUE(k.ok());
  const double exact = 2.0 * (analysis.alpha_sec - analysis.beta_sec) /
                       (analysis.gamma_sec - 2.0 * analysis.beta_sec);
  EXPECT_EQ(*k, std::max<int64_t>(1, static_cast<int64_t>(std::ceil(exact))));
  // The returned k satisfies Eq. 15.
  EXPECT_LE(2.0 * analysis.alpha_sec + 2.0 * static_cast<double>(*k - 1) * analysis.beta_sec,
            static_cast<double>(*k) * analysis.gamma_sec + 1e-12);
}

TEST(AdmissionTest, Equation18TransientSafeKIsLarger) {
  AdmissionControl admission = TestAdmission();
  const auto requests = VideoRequests(3);
  Result<int64_t> steady = admission.SteadyStateBlocksPerRound(requests);
  Result<int64_t> transient = admission.TransientSafeBlocksPerRound(requests);
  ASSERT_TRUE(steady.ok());
  ASSERT_TRUE(transient.ok());
  EXPECT_GE(*transient, *steady);
  // Eq. 18: transferring k+1 blocks fits in the playback of k.
  const auto analysis = admission.Analyze(requests);
  EXPECT_LE(3.0 * analysis.alpha_sec + 3.0 * static_cast<double>(*transient) * analysis.beta_sec,
            static_cast<double>(*transient) * analysis.gamma_sec + 1e-12);
}

TEST(AdmissionTest, KGrowsWithN) {
  // Figure 4: k(n) rises, steeply near n_max.
  AdmissionControl admission = TestAdmission();
  const int64_t n_max = admission.Analyze(VideoRequests(1)).n_max;
  int64_t previous = 0;
  for (int n = 1; n <= n_max; ++n) {
    Result<int64_t> k = admission.SteadyStateBlocksPerRound(VideoRequests(n));
    ASSERT_TRUE(k.ok()) << "n=" << n;
    EXPECT_GE(*k, previous) << "n=" << n;
    previous = *k;
  }
  EXPECT_FALSE(admission.SteadyStateBlocksPerRound(VideoRequests(static_cast<int>(n_max) + 1))
                   .ok());
}

TEST(AdmissionTest, EmptySetIsTriviallyAdmittable) {
  AdmissionControl admission = TestAdmission();
  EXPECT_TRUE(admission.Feasible({}));
  Result<int64_t> k = admission.SteadyStateBlocksPerRound({});
  ASSERT_TRUE(k.ok());
  EXPECT_EQ(*k, 1);
}

TEST(AdmissionTest, PlanAdmissionStepsKByOne) {
  AdmissionControl admission = TestAdmission();
  const auto existing = VideoRequests(2);
  Result<int64_t> current = admission.TransientSafeBlocksPerRound(existing);
  ASSERT_TRUE(current.ok());
  Result<std::vector<int64_t>> plan =
      admission.PlanAdmission(existing, RequestSpec{TestVideo(), 4}, *current);
  ASSERT_TRUE(plan.ok());
  ASSERT_FALSE(plan->empty());
  // Schedule is consecutive k values ending at the new target.
  for (size_t i = 0; i < plan->size(); ++i) {
    EXPECT_EQ((*plan)[i], *current + static_cast<int64_t>(i) + 1);
  }
  auto combined = existing;
  combined.push_back(RequestSpec{TestVideo(), 4});
  Result<int64_t> target = admission.TransientSafeBlocksPerRound(combined);
  ASSERT_TRUE(target.ok());
  EXPECT_EQ(plan->back(), *target);
}

TEST(AdmissionTest, PlanAdmissionKeepsSufficientK) {
  AdmissionControl admission = TestAdmission();
  Result<std::vector<int64_t>> plan =
      admission.PlanAdmission(std::vector<RequestSpec>(), RequestSpec{TestVideo(), 4}, 50);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->size(), 1u);
  EXPECT_EQ(plan->front(), 50);
}

TEST(AdmissionTest, RunningSumsAnalyseLikeTheRequestList) {
  // A ledger adds and removes requests in any order; its sums must give
  // the analysis of the list it stands for, bit for bit, and gamma must
  // rise again when the last request of the fastest kind leaves.
  AdmissionControl admission = TestAdmission();
  const RequestSpec video{TestVideo(), 2};
  const RequestSpec audio{TestAudio(), 512};
  const RequestSpec coarse_video{TestVideo(), 8};
  ASSERT_LT(video.BlockPlaybackDuration(), audio.BlockPlaybackDuration());
  ASSERT_LT(audio.BlockPlaybackDuration(), coarse_video.BlockPlaybackDuration());
  RequestSums sums;
  std::vector<RequestSpec> list;
  const auto expect_same = [&] {
    const AdmissionControl::Analysis from_sums = admission.Analyze(sums);
    const AdmissionControl::Analysis from_list = admission.Analyze(list);
    EXPECT_EQ(sums.n(), static_cast<int64_t>(list.size()));
    EXPECT_EQ(from_sums.n, from_list.n);
    EXPECT_EQ(from_sums.alpha_sec, from_list.alpha_sec);
    EXPECT_EQ(from_sums.beta_sec, from_list.beta_sec);
    EXPECT_EQ(from_sums.gamma_sec, from_list.gamma_sec);
    EXPECT_EQ(from_sums.n_max, from_list.n_max);
  };
  for (const RequestSpec& spec : {audio, video, coarse_video, video, audio}) {
    sums.Add(spec);
    list.push_back(spec);
    expect_same();
  }
  EXPECT_EQ(sums.min_block_playback(), video.BlockPlaybackDuration());
  // Remove both fine-grained videos: gamma moves up to the next key.
  for (int i = 0; i < 2; ++i) {
    sums.Remove(video);
    list.erase(std::find_if(list.begin(), list.end(), [&](const RequestSpec& spec) {
      return spec.granularity == video.granularity && spec.profile.medium == Medium::kVideo;
    }));
    expect_same();
  }
  EXPECT_EQ(sums.min_block_playback(), audio.BlockPlaybackDuration());
  EXPECT_EQ(sums.block_bits(), 2 * audio.BlockBits() + coarse_video.BlockBits());
  while (!list.empty()) {
    sums.Remove(list.back());
    list.pop_back();
    expect_same();
  }
  EXPECT_EQ(sums.block_bits(), 0);
  EXPECT_EQ(sums.min_block_playback(), std::numeric_limits<double>::infinity());
}

TEST(AdmissionTest, PlanAdmissionRejectsBeyondCeiling) {
  AdmissionControl admission = TestAdmission();
  const int64_t n_max = admission.Analyze(VideoRequests(1)).n_max;
  const auto existing = VideoRequests(static_cast<int>(n_max));
  Result<std::vector<int64_t>> plan =
      admission.PlanAdmission(existing, RequestSpec{TestVideo(), 4}, 1);
  EXPECT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), ErrorCode::kAdmissionRejected);
}

TEST(AdmissionTest, RoundTimeEquations7To10) {
  AdmissionControl admission = TestAdmission();
  const StorageTimings storage = TestStorage();
  const auto requests = VideoRequests(2);
  const std::vector<int64_t> blocks = {3, 5};
  const double transfer = 4.0 * 16384 / storage.transfer_rate_bits_per_sec;
  const double expected =
      (storage.max_access_gap_sec + transfer) * 2 +                        // Eq. 7 per request
      (2.0 * (admission.avg_scattering_sec() + transfer)) +                // Eq. 8, k_1 - 1 = 2
      (4.0 * (admission.avg_scattering_sec() + transfer));                 // Eq. 8, k_2 - 1 = 4
  EXPECT_NEAR(admission.RoundTime(requests, blocks), expected, 1e-12);
}

TEST(AdmissionTest, FeasibleRoundEquation11) {
  AdmissionControl admission = TestAdmission();
  const auto requests = VideoRequests(2);
  Result<int64_t> k = admission.SteadyStateBlocksPerRound(requests);
  ASSERT_TRUE(k.ok());
  EXPECT_TRUE(admission.FeasibleRound(requests, {*k, *k}));
  // A starved assignment (k = 1 with several requests) is infeasible when
  // the per-round overhead exceeds one block's playback.
  if (*k > 1) {
    EXPECT_FALSE(admission.FeasibleRound(requests, {1, 1}));
  }
}

TEST(AdmissionTest, MixedWorkloadUsesAverages) {
  AdmissionControl admission = TestAdmission();
  std::vector<RequestSpec> requests = {RequestSpec{TestVideo(), 4},
                                       RequestSpec{TestAudio(), 512}};
  const auto analysis = admission.Analyze(requests);
  const double avg_bits = (4.0 * 16384 + 512.0 * 8) / 2.0;
  EXPECT_NEAR(analysis.alpha_sec,
              TestStorage().max_access_gap_sec +
                  avg_bits / TestStorage().transfer_rate_bits_per_sec,
              1e-12);
}

TEST(PerRequestKTest, HomogeneousMatchesUniformAssignment) {
  AdmissionControl admission = TestAdmission();
  const auto requests = VideoRequests(3);
  Result<std::vector<int64_t>> per_request = admission.PerRequestBlocksPerRound(requests);
  ASSERT_TRUE(per_request.ok());
  ASSERT_EQ(per_request->size(), 3u);
  // Identical requests get identical (or off-by-one) round sizes, and the
  // assignment satisfies the exact Eq. 11 check.
  EXPECT_TRUE(admission.FeasibleRound(requests, *per_request));
  const int64_t lo = *std::min_element(per_request->begin(), per_request->end());
  const int64_t hi = *std::max_element(per_request->begin(), per_request->end());
  EXPECT_LE(hi - lo, 1);
  // And it never exceeds the uniform Eq. 16 answer.
  Result<int64_t> uniform = admission.SteadyStateBlocksPerRound(requests);
  ASSERT_TRUE(uniform.ok());
  EXPECT_LE(hi, *uniform + 1);
}

TEST(PerRequestKTest, HeterogeneousMixUsesSmallerFastSideRounds) {
  AdmissionControl admission = TestAdmission();
  // A fast consumer (small video blocks) next to slow audio (huge blocks
  // in playback time): the uniform simplification pins everyone to the
  // fast side's k, while the general solution keeps the audio at k = 1.
  std::vector<RequestSpec> requests = {RequestSpec{TestVideo(), 2},
                                       RequestSpec{TestAudio(), 4000}};
  Result<std::vector<int64_t>> per_request = admission.PerRequestBlocksPerRound(requests);
  ASSERT_TRUE(per_request.ok());
  EXPECT_TRUE(admission.FeasibleRound(requests, *per_request));
  EXPECT_EQ((*per_request)[1], 1);                 // audio: 1 s blocks, never binds
  EXPECT_GE((*per_request)[0], (*per_request)[1]); // video does the catching up
}

TEST(PerRequestKTest, AdmitsMixesTheUniformSimplificationRejects) {
  AdmissionControl admission = TestAdmission();
  // gamma is the FASTEST consumer under the uniform model, so one
  // fast-and-cheap stream plus many slow ones can blow past n_max even
  // though per-request rounds handle them easily.
  std::vector<RequestSpec> requests(6, RequestSpec{TestAudio(), 4000});  // 1 s blocks
  requests.push_back(RequestSpec{TestVideo(), 2});                      // 66 ms blocks
  Result<int64_t> uniform = admission.SteadyStateBlocksPerRound(requests);
  Result<std::vector<int64_t>> per_request = admission.PerRequestBlocksPerRound(requests);
  ASSERT_TRUE(per_request.ok());
  EXPECT_TRUE(admission.FeasibleRound(requests, *per_request));
  if (uniform.ok()) {
    // If the uniform model admits it at all, the general one is no worse.
    int64_t total = 0;
    for (int64_t k : *per_request) {
      total += k;
    }
    EXPECT_LE(total, static_cast<int64_t>(requests.size()) * *uniform);
  }
}

TEST(PerRequestKTest, RejectsOverload) {
  const StorageTimings storage = TestStorage();
  AdmissionControl admission(storage, storage.max_access_gap_sec / 10.0);
  // A stream whose transfer alone outpaces its playback can never fit.
  std::vector<RequestSpec> requests = {RequestSpec{HdtvVideo(), 4}};
  EXPECT_FALSE(admission.PerRequestBlocksPerRound(requests).ok());
  // And too many feasible streams are also rejected (finite k cap).
  const int64_t n_max = admission.Analyze(VideoRequests(1)).n_max;
  EXPECT_FALSE(
      admission.PerRequestBlocksPerRound(VideoRequests(static_cast<int>(n_max) * 3)).ok());
}

TEST(PerRequestKTest, EmptySetIsTrivial) {
  AdmissionControl admission = TestAdmission();
  Result<std::vector<int64_t>> per_request = admission.PerRequestBlocksPerRound({});
  ASSERT_TRUE(per_request.ok());
  EXPECT_TRUE(per_request->empty());
}

// Property sweep over the scattering average: a tighter realized
// scattering (smaller beta) admits at least as many requests.
class ScatteringSweep : public ::testing::TestWithParam<int> {};

TEST_P(ScatteringSweep, TighterScatteringNeverHurts) {
  const StorageTimings storage = TestStorage();
  const double fraction = static_cast<double>(GetParam()) / 10.0;
  AdmissionControl loose(storage, storage.max_access_gap_sec * fraction);
  AdmissionControl tight(storage, storage.max_access_gap_sec * fraction / 2.0);
  const int64_t n_loose = loose.Analyze(VideoRequests(1)).n_max;
  const int64_t n_tight = tight.Analyze(VideoRequests(1)).n_max;
  EXPECT_GE(n_tight, n_loose);
}

INSTANTIATE_TEST_SUITE_P(Fractions, ScatteringSweep, ::testing::Range(1, 10));

}  // namespace
}  // namespace vafs
