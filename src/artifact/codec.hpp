// Versioned, self-describing binary codec for fitted-model artifacts.
//
// Wire format (all integers little-endian, doubles as IEEE-754 bit
// patterns — the round trip is bit-exact by construction):
//
//   file   := magic:u32 ("VQAF") version:u32 chunk*
//   chunk  := kind:u32 (FourCC) payload_size:u64 payload:bytes
//
// Chunk payloads may themselves hold chunks: a bundle's PRED chunk holds the
// conformal wrapper, which holds the quantile pair, which holds its two point
// models (the grammar is in bundle.hpp and model_codec.hpp). Writer
// backpatches each chunk's size on end_chunk(), so encoders never precompute
// payload lengths. Reader is bounds-checked everywhere and throws
// ArtifactError on truncation, bad magic, a bad seal, or any format version
// but kFormatVersion — it never reads past the buffer and never trusts an
// embedded length.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "linalg/matrix.hpp"

namespace vmincqr::artifact {

using linalg::Matrix;
using linalg::Vector;

/// Malformed, truncated, or version-incompatible artifact bytes.
class ArtifactError : public std::runtime_error {
 public:
  explicit ArtifactError(const std::string& message)
      : std::runtime_error("artifact: " + message) {}
};

[[nodiscard]] constexpr std::uint32_t fourcc(char a, char b, char c, char d) {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(a)) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(b)) << 8) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(c)) << 16) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(d)) << 24);
}

inline constexpr std::uint32_t kMagic = fourcc('V', 'Q', 'A', 'F');
/// The one format version this reader accepts. Version 3 is the first whose
/// artifacts end in a CSUM chunk: a CRC-32 (IEEE, reflected) of every
/// preceding byte, header included. Writer::finish appends it; Reader::open
/// verifies it BEFORE any chunk parsing and strips it from the readable
/// region, so decoders never see it. A CRC-32 detects every burst error up to
/// 32 bits — in particular any single flipped byte anywhere in the artifact —
/// turning silent payload corruption (e.g. a damaged IEEE-754 coefficient
/// that still parses) into a hard ArtifactError at load time. The unsealed
/// versions 1 and 2 are rejected like any other version but this one.
inline constexpr std::uint32_t kFormatVersion = 3;

/// Chunk tags. Bundle-level chunks first, then the predictor chunks of the
/// one shipped shape, CQRC(QPAR(point, point)); a point tag doubles as its
/// model's type discriminator.
enum class ChunkKind : std::uint32_t {
  kMeta = fourcc('M', 'E', 'T', 'A'),          ///< scenario + label
  kColumns = fourcc('C', 'O', 'L', 'S'),       ///< dataset + selected columns
  kInputScaler = fourcc('S', 'C', 'A', 'L'),   ///< optional serve-side scaler
  kPredictor = fourcc('P', 'R', 'E', 'D'),     ///< wraps one predictor chunk
  kLinear = fourcc('L', 'I', 'N', 'R'),
  kGbt = fourcc('G', 'B', 'T', 'R'),
  kOrderedBoost = fourcc('O', 'B', 'S', 'T'),
  kMlp = fourcc('M', 'L', 'P', 'R'),
  kQuantilePair = fourcc('Q', 'P', 'A', 'R'),
  kCqr = fourcc('C', 'Q', 'R', 'C'),
  kChecksum = fourcc('C', 'S', 'U', 'M'),  ///< trailing CRC-32 seal
};

/// Human-readable FourCC, e.g. "META" (non-printable bytes escape to '?').
[[nodiscard]] std::string chunk_kind_name(ChunkKind kind);

/// CRC-32 (IEEE 802.3, reflected, init/final-xor 0xFFFFFFFF) — the integrity
/// seal behind the CSUM chunk. Exposed for tests and external tooling.
[[nodiscard]] std::uint32_t crc32(const std::uint8_t* data, std::size_t size);

/// Streams the compact binary encoding. Scalars outside a chunk are legal
/// (nested payload encoders rely on it); finish() rejects unclosed chunks.
class Writer {
 public:
  Writer();

  void begin_chunk(ChunkKind kind);
  void end_chunk();

  void put_u8(std::uint8_t value);
  void put_u32(std::uint32_t value);
  void put_u64(std::uint64_t value);
  void put_f64(double value);
  void put_str(const std::string& value);
  void put_vec(const Vector& value);
  void put_index_vec(const std::vector<std::size_t>& value);
  void put_i32_vec(const std::vector<std::int32_t>& value);
  void put_matrix(const Matrix& value);

  /// Seals the artifact and releases the byte buffer. Contract violation
  /// (std::invalid_argument) if a chunk is still open or the writer was
  /// already finished.
  [[nodiscard]] std::vector<std::uint8_t> finish();

 private:
  std::vector<std::uint8_t> bytes_;
  std::vector<std::size_t> open_size_offsets_;
  bool finished_ = false;
};

/// Bounds-checked cursor over an encoded region. Obtain the top-level reader
/// via open() (validates magic, version and seal); chunk payloads hand out
/// nested readers confined to the payload bytes.
class Reader {
 public:
  struct Chunk;  // { kind, payload } — defined below (needs complete Reader)

  /// Validates the header and the CSUM seal and returns a reader over the
  /// chunk region before the seal. Throws ArtifactError on bad magic, any
  /// version but kFormatVersion, or a missing or mismatched seal.
  [[nodiscard]] static Reader open(const std::vector<std::uint8_t>& bytes);

  Reader(const std::uint8_t* begin, const std::uint8_t* end);

  [[nodiscard]] bool at_end() const noexcept { return cursor_ == end_; }
  [[nodiscard]] std::size_t remaining() const noexcept {
    return static_cast<std::size_t>(end_ - cursor_);
  }

  /// Reads one chunk header + payload, advancing past the whole chunk.
  [[nodiscard]] Chunk next_chunk();
  /// next_chunk() that must yield `kind`; throws ArtifactError otherwise.
  [[nodiscard]] Reader expect_chunk(ChunkKind kind);
  /// Throws ArtifactError unless every byte of this `kind` payload was read:
  /// a payload holds exactly what its grammar rule says.
  void expect_end(ChunkKind kind) const;

  [[nodiscard]] std::uint8_t get_u8();
  [[nodiscard]] std::uint32_t get_u32();
  [[nodiscard]] std::uint64_t get_u64();
  [[nodiscard]] double get_f64();
  [[nodiscard]] std::string get_str();
  [[nodiscard]] Vector get_vec();
  [[nodiscard]] std::vector<std::size_t> get_index_vec();
  [[nodiscard]] std::vector<std::int32_t> get_i32_vec();
  [[nodiscard]] Matrix get_matrix();

 private:
  void need(std::size_t n) const;
  [[nodiscard]] std::size_t get_length(std::size_t element_size);

  const std::uint8_t* cursor_;
  const std::uint8_t* end_;
};

/// One decoded chunk: its tag and a reader confined to its payload bytes.
struct Reader::Chunk {
  ChunkKind kind;
  Reader payload;
};

}  // namespace vmincqr::artifact
