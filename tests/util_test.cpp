// Unit tests for src/util: RNG determinism and statistics, binary I/O
// round-trips, table rendering, and the check machinery.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "util/check.hpp"
#include "util/io.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"
#include "temp_file.hpp"

namespace aptq {
namespace {

TEST(Check, ThrowsWithLocation) {
  try {
    APTQ_CHECK(false, "boom");
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("boom"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("util_test"), std::string::npos);
  }
}

TEST(Check, PassesSilently) {
  EXPECT_NO_THROW(APTQ_CHECK(1 + 1 == 2, "never"));
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += a.next_u64() == b.next_u64();
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformFloatBounds) {
  Rng rng(4);
  for (int i = 0; i < 1000; ++i) {
    const float v = rng.uniform(-2.0f, 5.0f);
    EXPECT_GE(v, -2.0f);
    EXPECT_LT(v, 5.0f);
  }
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng(5);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(Rng, IndexCoversRangeUniformly) {
  Rng rng(6);
  std::vector<int> counts(7, 0);
  const int n = 70000;
  for (int i = 0; i < n; ++i) {
    ++counts[rng.index(7)];
  }
  for (const int c : counts) {
    EXPECT_NEAR(c, n / 7, n / 70);
  }
}

TEST(Rng, IndexRejectsZero) {
  Rng rng(7);
  EXPECT_THROW(rng.index(0), Error);
}

TEST(Rng, CategoricalFollowsWeights) {
  Rng rng(8);
  const std::vector<float> w = {1.0f, 3.0f, 0.0f, 4.0f};
  std::vector<int> counts(4, 0);
  const int n = 80000;
  for (int i = 0; i < n; ++i) {
    ++counts[rng.categorical(w)];
  }
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(counts[0] / double(n), 1.0 / 8.0, 0.01);
  EXPECT_NEAR(counts[1] / double(n), 3.0 / 8.0, 0.01);
  EXPECT_NEAR(counts[3] / double(n), 4.0 / 8.0, 0.01);
}

TEST(Rng, CategoricalRejectsDegenerateInput) {
  Rng rng(9);
  const std::vector<float> zero = {0.0f, 0.0f};
  EXPECT_THROW(rng.categorical(zero), Error);
  const std::vector<float> negative = {1.0f, -0.5f};
  EXPECT_THROW(rng.categorical(negative), Error);
  EXPECT_THROW(rng.categorical(std::span<const float>{}), Error);
}

TEST(Rng, ShufflePermutes) {
  Rng rng(10);
  std::vector<int> v = {0, 1, 2, 3, 4, 5, 6, 7};
  auto sorted = v;
  rng.shuffle(v);
  auto shuffled_sorted = v;
  std::sort(shuffled_sorted.begin(), shuffled_sorted.end());
  EXPECT_EQ(shuffled_sorted, sorted);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(11);
  Rng b = a.split();
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += a.next_u64() == b.next_u64();
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, ReseedRestartsStream) {
  Rng rng(12);
  const auto first = rng.next_u64();
  rng.next_u64();
  rng.reseed(12);
  EXPECT_EQ(rng.next_u64(), first);
}

class IoTest : public ::testing::Test {
 protected:
  const ScopedTempFile file_{"aptq_io_test"};
  const std::string& path_ = file_.path();
};

TEST_F(IoTest, ScalarRoundTrip) {
  {
    BinaryWriter w(path_);
    w.write_u32(0xDEADBEEFu);
    w.write_u64(0x123456789ABCDEFull);
    w.write_i64(-42);
    w.write_f32(3.25f);
  }
  BinaryReader r(path_);
  EXPECT_EQ(r.read_u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.read_u64(), 0x123456789ABCDEFull);
  EXPECT_EQ(r.read_i64(), -42);
  EXPECT_EQ(r.read_f32(), 3.25f);
}

TEST_F(IoTest, StringAndVectorRoundTrip) {
  const std::vector<float> vf = {1.0f, -2.5f, 0.0f};
  const std::vector<std::uint32_t> vu = {7, 8, 9};
  {
    BinaryWriter w(path_);
    w.write_string("hello aptq");
    w.write_string("");
    w.write_f32_vector(vf);
    w.write_u32_vector(vu);
  }
  BinaryReader r(path_);
  EXPECT_EQ(r.read_string(), "hello aptq");
  EXPECT_EQ(r.read_string(), "");
  EXPECT_EQ(r.read_f32_vector(), vf);
  EXPECT_EQ(r.read_u32_vector(), vu);
}

TEST_F(IoTest, ShortReadThrows) {
  {
    BinaryWriter w(path_);
    w.write_u32(1);
  }
  BinaryReader r(path_);
  r.read_u32();
  EXPECT_THROW(r.read_u64(), Error);
}

TEST_F(IoTest, MissingFileThrows) {
  EXPECT_THROW(BinaryReader("/nonexistent/aptq/file.bin"), Error);
}

TEST(IoHelpers, FileExists) {
  EXPECT_FALSE(file_exists("/nonexistent/aptq/file.bin"));
}

TEST(Table, RendersAlignedColumns) {
  TextTable t({"Method", "Avg bit", "C4"});
  t.add_row({"GPTQ", "4.0", "5.62"});
  t.add_row({"APTQ-75%", "3.5", "5.54"});
  const std::string s = t.render();
  EXPECT_NE(s.find("Method"), std::string::npos);
  EXPECT_NE(s.find("APTQ-75%"), std::string::npos);
  EXPECT_NE(s.find("----"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(Table, RejectsMismatchedRow) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only one"}), Error);
}

TEST(Table, FormatHelpers) {
  EXPECT_EQ(fmt_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_fixed(-0.5, 1), "-0.5");
  EXPECT_EQ(fmt_percent(0.75, 1), "75.0%");
}

TEST(Timer, MeasuresNonNegativeTime) {
  Timer t;
  double x = 0.0;
  for (int i = 0; i < 10000; ++i) {
    x += std::sqrt(static_cast<double>(i));
  }
  EXPECT_GT(x, 0.0);  // keep the loop observable
  EXPECT_GE(t.seconds(), 0.0);
  EXPECT_GE(t.millis(), 0.0);
  t.reset();
  EXPECT_LT(t.seconds(), 1.0);
}

}  // namespace
}  // namespace aptq
