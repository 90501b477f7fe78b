// Corruption and fuzz tests for the packed-model deploy loader.
//
// The contract under test: feeding PackedModel::load (and the underlying
// BinaryReader / QuantizedLinear::deserialize) a truncated, bit-flipped, or
// otherwise corrupt file must either succeed (flips that only perturb
// payload values) or throw aptq::Error — never crash, never trip a
// sanitizer, and never attempt a corrupt-length-field-sized allocation.
// Run under APTQ_SANITIZE=ON (the CI sanitize job) this doubles as a
// memory-safety check of the whole deserialization path.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "quant/packed_model.hpp"
#include "util/io.hpp"
#include "util/rng.hpp"
#include "temp_file.hpp"

namespace aptq {
namespace {

ModelConfig small_config() {
  ModelConfig c;
  c.vocab_size = 16;
  c.dim = 12;
  c.n_layers = 2;
  c.n_heads = 2;
  c.ffn_dim = 16;
  return c;
}

ScopedTempFile save_packed_fixture(const char* stem) {
  const Model m = Model::init(small_config(), 11);
  QuantSpec spec;
  spec.bits = 4;
  spec.group_size = 4;
  const PackedModel pm = PackedModel::pack_uniform(m, spec);
  ScopedTempFile file(stem);
  pm.save(file.path());
  return file;
}

std::vector<std::uint8_t> read_all(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

void write_all(const std::string& path, const std::vector<std::uint8_t>& b) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(b.data()),
            static_cast<std::streamsize>(b.size()));
}

// Attempts a load; returns true if it threw aptq::Error, false if it
// succeeded. Anything else (bad_alloc, segfault, sanitizer abort)
// propagates and fails the test.
bool load_throws_error(const std::string& path) {
  try {
    const PackedModel loaded = PackedModel::load(path);
    (void)loaded;
    return false;
  } catch (const Error&) {
    return true;
  }
}

TEST(LoaderFuzz, IntactFileLoads) {
  const ScopedTempFile path_file = save_packed_fixture("aptq_fuzz_intact");
  const std::string& path = path_file.path();
  EXPECT_FALSE(load_throws_error(path));
}

TEST(LoaderFuzz, EveryTruncationThrowsError) {
  const ScopedTempFile path_file = save_packed_fixture("aptq_fuzz_trunc_src");
  const std::string& path = path_file.path();
  const std::vector<std::uint8_t> bytes = read_all(path);
  ASSERT_GT(bytes.size(), 64u);
  const ScopedTempFile cut_file("aptq_fuzz_trunc");
  const std::string& cut = cut_file.path();
  // Every header byte boundary, then a coarse sweep through the payload,
  // then the off-by-one tail.
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n < 64 && n < bytes.size(); ++n) {
    lengths.push_back(n);
  }
  for (std::size_t n = 64; n < bytes.size(); n += bytes.size() / 40 + 1) {
    lengths.push_back(n);
  }
  lengths.push_back(bytes.size() - 1);
  for (const std::size_t n : lengths) {
    write_all(cut, {bytes.begin(), bytes.begin() + n});
    EXPECT_TRUE(load_throws_error(cut)) << "truncated to " << n << " bytes";
  }
}

TEST(LoaderFuzz, EveryHeaderBitFlipThrowsOrLoads) {
  const ScopedTempFile path_file = save_packed_fixture("aptq_fuzz_hdr_src");
  const std::string& path = path_file.path();
  const std::vector<std::uint8_t> bytes = read_all(path);
  const ScopedTempFile flipped_file("aptq_fuzz_hdr");
  const std::string& flipped = flipped_file.path();
  // Magic, version, the six config u64s, rope/eps: first 64 bytes.
  std::size_t threw = 0;
  for (std::size_t byte = 0; byte < 64 && byte < bytes.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<std::uint8_t> mutated = bytes;
      mutated[byte] ^= static_cast<std::uint8_t>(1u << bit);
      write_all(flipped, mutated);
      if (load_throws_error(flipped)) {
        ++threw;
      }
    }
  }
  // Magic and version flips alone guarantee rejections happened.
  EXPECT_GE(threw, 64u);
}

TEST(LoaderFuzz, RandomBitFlipsAnywhereNeverCrash) {
  const ScopedTempFile path_file = save_packed_fixture("aptq_fuzz_rand_src");
  const std::string& path = path_file.path();
  const std::vector<std::uint8_t> bytes = read_all(path);
  const ScopedTempFile flipped_file("aptq_fuzz_rand");
  const std::string& flipped = flipped_file.path();
  Rng rng(2024);
  for (int iter = 0; iter < 200; ++iter) {
    std::vector<std::uint8_t> mutated = bytes;
    const std::size_t flips = 1 + rng.index(8);
    for (std::size_t f = 0; f < flips; ++f) {
      mutated[rng.index(mutated.size())] ^=
          static_cast<std::uint8_t>(1u << rng.index(8));
    }
    write_all(flipped, mutated);
    // Success (payload-only flips) and Error are both fine; anything else
    // escapes load_throws_error and fails the test.
    (void)load_throws_error(flipped);
  }
}

TEST(LoaderFuzz, OutOfRangeFormatCodeRejected) {
  Rng rng(3);
  const Matrix w = Matrix::randn(4, 8, rng);
  QuantSpec spec;
  spec.bits = 4;
  spec.group_size = 4;
  const ScopedTempFile path_file("aptq_fuzz_format");
  const std::string& path = path_file.path();
  {
    BinaryWriter writer(path);
    QuantizedLinear(w, spec).serialize(writer);
  }
  // Field layout: u32 bits, u64 group_size, then the u32 format code.
  for (const std::uint8_t code : {std::uint8_t{7}, std::uint8_t{0x7F},
                                  std::uint8_t{0xFF}}) {
    std::vector<std::uint8_t> bytes = read_all(path);
    ASSERT_GT(bytes.size(), 16u);
    bytes[12] = code;
    write_all(path, bytes);
    BinaryReader reader(path);
    EXPECT_THROW(QuantizedLinear::deserialize(reader), Error)
        << "format code " << static_cast<int>(code);
  }
}

// ---- format v3 specifics ---------------------------------------------------

// v3 rejects out-of-range group sizes outright: the writer always
// normalizes group_size into [1, cols], so 0 and > cols can only mean a
// corrupt or forged record.
TEST(LoaderFuzz, BadGroupSizeRejected) {
  Rng rng(5);
  const Matrix w = Matrix::randn(4, 8, rng);
  QuantSpec spec;
  spec.bits = 4;
  spec.group_size = 4;
  const ScopedTempFile path_file("aptq_fuzz_group");
  const std::string& path = path_file.path();
  {
    BinaryWriter writer(path);
    QuantizedLinear(w, spec).serialize(writer);
  }
  const std::vector<std::uint8_t> good = read_all(path);
  // group_size is the u64 at offset 4 (after the u32 bits field).
  for (const std::uint64_t bad :
       {std::uint64_t{0}, std::uint64_t{9}, std::uint64_t{1} << 40}) {
    std::vector<std::uint8_t> bytes = good;
    for (int i = 0; i < 8; ++i) {
      bytes[4 + static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(bad >> (8 * i));
    }
    write_all(path, bytes);
    BinaryReader reader(path);
    EXPECT_THROW(QuantizedLinear::deserialize(reader), Error)
        << "group_size " << bad;
  }
}

// Truncating inside the group-parameter array (the trailing scale/zero
// block) must throw at EOF, never read stale values.
TEST(LoaderFuzz, TruncatedGroupScaleArrayThrows) {
  Rng rng(6);
  const Matrix w = Matrix::randn(6, 16, rng);
  QuantSpec spec;
  spec.bits = 4;
  spec.group_size = 4;  // 6 rows × 4 groups × 8 bytes of params at the tail
  const ScopedTempFile path_file("aptq_fuzz_params");
  const std::string& path = path_file.path();
  {
    BinaryWriter writer(path);
    QuantizedLinear(w, spec).serialize(writer);
  }
  const std::vector<std::uint8_t> good = read_all(path);
  const std::size_t params_bytes = 6 * 4 * 8;
  ASSERT_GT(good.size(), params_bytes);
  for (const std::size_t cut : {std::size_t{1}, std::size_t{7},
                                params_bytes / 2, params_bytes - 1}) {
    write_all(path, {good.begin(), good.end() - static_cast<long>(cut)});
    BinaryReader reader(path);
    EXPECT_THROW(QuantizedLinear::deserialize(reader), Error)
        << "cut " << cut << " bytes";
  }
}

// The committed v2 fixture (written by the pre-blocked code at packed file
// version 2) must keep loading through the back-compat reader, and its
// repacked linears must be bit-identical to packing the same model fresh:
// same codes, same group parameters, same dequantized weights.
TEST(LoaderFuzz, CommittedV2FixtureLoadsByteCorrectly) {
  const std::string fixture =
      std::string(APTQ_GOLDEN_DIR) + "/packed_v2_fixture.bin";
  ASSERT_TRUE(std::filesystem::exists(fixture))
      << "missing fixture " << fixture;
  const PackedModel loaded = PackedModel::load(fixture);
  const Model m = Model::init(small_config(), 11);
  QuantSpec spec;
  spec.bits = 4;
  spec.group_size = 4;
  const PackedModel fresh = PackedModel::pack_uniform(m, spec);
  ASSERT_EQ(loaded.linears().size(), fresh.linears().size());
  for (std::size_t i = 0; i < fresh.linears().size(); ++i) {
    EXPECT_TRUE(loaded.linears()[i] == fresh.linears()[i]) << "linear " << i;
  }
  EXPECT_TRUE(loaded.config() == fresh.config());
  // And the v2-loaded model re-saves as a valid v3 file.
  const ScopedTempFile resaved_file("aptq_fuzz_v2_resave");
  const std::string& resaved = resaved_file.path();
  loaded.save(resaved);
  const PackedModel round = PackedModel::load(resaved);
  for (std::size_t i = 0; i < fresh.linears().size(); ++i) {
    EXPECT_TRUE(round.linears()[i] == fresh.linears()[i]);
  }
}

TEST(LoaderFuzz, GiantLengthFieldFailsBeforeAllocating) {
  const ScopedTempFile path_file("aptq_fuzz_len");
  const std::string& path = path_file.path();
  {
    BinaryWriter writer(path);
    writer.write_u64(std::uint64_t{1} << 60);  // claims 2^60 elements
    writer.write_f32(0.0f);
  }
  BinaryReader reader(path);
  try {
    reader.read_f32_vector();
    FAIL() << "giant length accepted";
  } catch (const Error& e) {
    // The length check fires on the file size, before any allocation.
    EXPECT_NE(std::string(e.what()).find("exceeds"), std::string::npos);
  }
}

}  // namespace
}  // namespace aptq
