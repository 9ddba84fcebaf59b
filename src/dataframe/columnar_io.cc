#include "dataframe/columnar_io.h"

#include <bit>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <system_error>
#include <vector>

#include "dataframe/columnar_internal.h"
#include "simd/simd.h"
#include "util/check.h"
#include "util/fault.h"
#include "util/metrics.h"
#include "util/string_util.h"
#include "util/trace.h"

namespace arda::df {

namespace {

constexpr char kMagic[4] = {'A', 'R', 'D', 'C'};
constexpr char kMetaMagic[4] = {'A', 'R', 'D', 'M'};
constexpr uint32_t kFormatVersion = 3;
constexpr uint32_t kMetaVersion = 1;
// Decode-time sanity bounds for sketch sizes; real sketches are
// kHllRegisters / kStatsMinHashHashes, corrupt lengths fail fast instead
// of allocating gigabytes.
constexpr uint32_t kMaxHllRegisters = 1u << 20;
constexpr uint32_t kMaxMinHashSlots = 1u << 16;

constexpr uint8_t kTypeDouble = 0;
constexpr uint8_t kTypeInt64 = 1;
constexpr uint8_t kTypeString = 2;

uint64_t Fnv1a64(std::string_view data) {
  uint64_t h = 1469598103934665603ULL;
  for (char c : data) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

// Little-endian primitive encode/decode — explicit byte shuffling so the
// on-disk format is host-endianness-independent.
void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void PutDouble(std::string* out, double v) {
  PutU64(out, std::bit_cast<uint64_t>(v));
}

// Bounds-checked cursor over an input buffer. Every Get* advances `pos`
// and fails (without reading) when fewer bytes remain than requested, so
// truncated files surface as Status instead of out-of-range reads.
struct Cursor {
  std::string_view data;
  size_t pos = 0;

  size_t Remaining() const { return data.size() - pos; }

  Status Need(size_t n, const char* what) {
    if (Remaining() < n) {
      return Status::InvalidArgument(
          StrFormat("columnar data truncated reading %s (need %zu bytes, "
                    "have %zu)",
                    what, n, Remaining()));
    }
    return Status::Ok();
  }

  Status GetU32(uint32_t* out, const char* what) {
    ARDA_RETURN_IF_ERROR(Need(4, what));
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(
               static_cast<unsigned char>(data[pos + i]))
           << (8 * i);
    }
    pos += 4;
    *out = v;
    return Status::Ok();
  }

  Status GetU64(uint64_t* out, const char* what) {
    ARDA_RETURN_IF_ERROR(Need(8, what));
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(
               static_cast<unsigned char>(data[pos + i]))
           << (8 * i);
    }
    pos += 8;
    *out = v;
    return Status::Ok();
  }

  Status GetBytes(std::string_view* out, size_t n, const char* what) {
    ARDA_RETURN_IF_ERROR(Need(n, what));
    *out = data.substr(pos, n);
    pos += n;
    return Status::Ok();
  }
};

// Appends the meta block: fingerprint of the source file plus the
// optional per-column statistics catalog. `meta` may be null (unknown
// fingerprint, no stats).
void AppendMetaBlock(const DataFrame& frame, const ColumnarMeta* meta,
                     std::string* payload) {
  payload->append(kMetaMagic, sizeof(kMetaMagic));
  PutU32(payload, kMetaVersion);
  PutU64(payload, meta == nullptr ? 0 : meta->source_size);
  PutU64(payload, meta == nullptr ? 0 : meta->source_hash);
  const bool has_stats = meta != nullptr && !meta->stats.Empty();
  payload->push_back(has_stats ? 1 : 0);
  if (!has_stats) return;
  ARDA_CHECK_EQ(meta->stats.columns.size(), frame.NumCols());
  for (const ColumnStats& stats : meta->stats.columns) {
    PutU64(payload, stats.row_count);
    PutU64(payload, stats.non_null_count);
    payload->push_back(stats.has_range ? 1 : 0);
    PutDouble(payload, stats.min);
    PutDouble(payload, stats.max);
    PutU32(payload, static_cast<uint32_t>(stats.hll.size()));
    payload->append(reinterpret_cast<const char*>(stats.hll.data()),
                    stats.hll.size());
    PutU32(payload, static_cast<uint32_t>(stats.minhash.size()));
    for (uint64_t slot : stats.minhash) PutU64(payload, slot);
  }
}

uint8_t TypeByteOf(DataType type) {
  switch (type) {
    case DataType::kDouble:
      return kTypeDouble;
    case DataType::kInt64:
      return kTypeInt64;
    case DataType::kString:
      return kTypeString;
  }
  return kTypeString;
}

}  // namespace

// Fixed-offset column index right after the 48-byte header, then validity
// bytes (one 0/1 byte per row) and data blocks, numeric data padded to
// 8-byte alignment so a mapped reader can borrow it in place.
std::string WriteColumnarString(const DataFrame& frame,
                                const ColumnarMeta* meta) {
  const size_t rows = frame.NumRows();
  const size_t cols = frame.NumCols();

  // Index size is fixed by names/types alone, which pins every block
  // offset before the blocks are written.
  size_t index_size = 16;  // meta offset + meta length
  for (size_t c = 0; c < cols; ++c) {
    index_size += 4 + frame.col(c).name().size() + 1 + 24;
  }
  const uint64_t index_end = internal::kV3HeaderSize + index_size;

  struct BlockRef {
    uint64_t validity_off = 0;
    uint64_t data_off = 0;
    uint64_t data_len = 0;
  };
  std::vector<BlockRef> refs(cols);
  std::string body;  // bytes from index_end on
  for (size_t c = 0; c < cols; ++c) {
    const Column& col = frame.col(c);
    refs[c].validity_off = index_end + body.size();
    for (size_t r = 0; r < rows; ++r) {
      body.push_back(col.IsNull(r) ? '\0' : '\x01');
    }
    if (col.type() != DataType::kString) {
      while ((index_end + body.size()) % 8 != 0) body.push_back('\0');
    }
    refs[c].data_off = index_end + body.size();
    switch (col.type()) {
      case DataType::kDouble:
        for (size_t r = 0; r < rows; ++r) {
          PutDouble(&body, col.IsNull(r) ? 0.0 : col.DoubleAt(r));
        }
        break;
      case DataType::kInt64:
        for (size_t r = 0; r < rows; ++r) {
          PutU64(&body, static_cast<uint64_t>(
                            col.IsNull(r) ? 0 : col.Int64At(r)));
        }
        break;
      case DataType::kString:
        for (size_t r = 0; r < rows; ++r) {
          if (col.IsNull(r)) {
            PutU32(&body, 0);
            continue;
          }
          const std::string& s = col.StringAt(r);
          PutU32(&body, static_cast<uint32_t>(s.size()));
          body += s;
        }
        break;
    }
    refs[c].data_len = index_end + body.size() - refs[c].data_off;
  }
  const uint64_t meta_off = index_end + body.size();
  AppendMetaBlock(frame, meta, &body);
  const uint64_t meta_len = index_end + body.size() - meta_off;

  std::string index;
  index.reserve(index_size);
  for (size_t c = 0; c < cols; ++c) {
    const Column& col = frame.col(c);
    PutU32(&index, static_cast<uint32_t>(col.name().size()));
    index += col.name();
    index.push_back(static_cast<char>(TypeByteOf(col.type())));
    PutU64(&index, refs[c].validity_off);
    PutU64(&index, refs[c].data_off);
    PutU64(&index, refs[c].data_len);
  }
  PutU64(&index, meta_off);
  PutU64(&index, meta_len);
  ARDA_CHECK_EQ(index.size(), index_size);

  std::string out;
  out.reserve(internal::kV3HeaderSize + index.size() + body.size());
  out.append(kMagic, sizeof(kMagic));
  PutU32(&out, kFormatVersion);
  PutU64(&out, static_cast<uint64_t>(rows));
  PutU32(&out, static_cast<uint32_t>(cols));
  PutU32(&out, 0);  // reserved
  uint64_t h = 1469598103934665603ULL;
  for (std::string_view part : {std::string_view(index),
                                std::string_view(body)}) {
    for (char ch : part) {
      h ^= static_cast<unsigned char>(ch);
      h *= 1099511628211ULL;
    }
  }
  PutU64(&out, h);  // payload checksum over [48, EOF)
  PutU64(&out, index_end);
  PutU64(&out, Fnv1a64(index));
  out += index;
  out += body;
  return out;
}

Status WriteColumnar(const DataFrame& frame, const std::string& path,
                     const ColumnarMeta* meta) {
  trace::StageScope scope("ingest/columnar_write");
  std::string data = WriteColumnarString(frame, meta);
  // Write-then-rename: readers of the previous cache generation — eager
  // opens and, critically, live mmaps — keep the old inode until they
  // close/unmap it. Writing `path` in place with "wb" would truncate the
  // inode a mapped snapshot still reads, turning its next page fault
  // into SIGBUS.
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return Status::IoError("cannot open file for writing: " + tmp);
  }
  size_t written = std::fwrite(data.data(), 1, data.size(), f);
  bool close_error = std::fclose(f) != 0;
  if (written != data.size() || close_error) {
    std::remove(tmp.c_str());  // don't leave a torn cache file behind
    return Status::IoError("failed writing file: " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IoError("cannot rename " + tmp + " into place");
  }
  metrics::IncrementCounter("ingest.columnar_write_bytes", data.size());
  metrics::IncrementCounter("ingest.columnar_write_rows", frame.NumRows());
  return Status::Ok();
}

namespace {

// Decodes the meta block (fingerprint + stats catalog) into `meta`.
// Carries the `stats_decode` fault site so the degradation path — corrupt
// stats never crash, the cache read fails with a Status and the loader
// falls back to the CSV — stays testable.
Status DecodeMetaBlock(Cursor* in, uint32_t cols, ColumnarMeta* meta) {
  ARDA_FAULT_POINT(fault::kStatsDecode);
  std::string_view magic;
  ARDA_RETURN_IF_ERROR(in->GetBytes(&magic, 4, "meta magic"));
  if (magic != std::string_view(kMetaMagic, sizeof(kMetaMagic))) {
    return Status::InvalidArgument("columnar meta block has bad magic");
  }
  uint32_t meta_version = 0;
  ARDA_RETURN_IF_ERROR(in->GetU32(&meta_version, "meta version"));
  if (meta_version != kMetaVersion) {
    return Status::FailedPrecondition(
        StrFormat("columnar meta version skew: file has %u, reader "
                  "supports %u",
                  meta_version, kMetaVersion));
  }
  ARDA_RETURN_IF_ERROR(in->GetU64(&meta->source_size, "source size"));
  ARDA_RETURN_IF_ERROR(in->GetU64(&meta->source_hash, "source hash"));
  std::string_view has_stats;
  ARDA_RETURN_IF_ERROR(in->GetBytes(&has_stats, 1, "stats flag"));
  if (has_stats[0] == 0) return Status::Ok();
  meta->stats.columns.reserve(cols);
  for (uint32_t c = 0; c < cols; ++c) {
    ColumnStats stats;
    ARDA_RETURN_IF_ERROR(in->GetU64(&stats.row_count, "stats row count"));
    ARDA_RETURN_IF_ERROR(
        in->GetU64(&stats.non_null_count, "stats non-null count"));
    std::string_view has_range;
    ARDA_RETURN_IF_ERROR(in->GetBytes(&has_range, 1, "stats range flag"));
    stats.has_range = has_range[0] != 0;
    uint64_t bits = 0;
    ARDA_RETURN_IF_ERROR(in->GetU64(&bits, "stats min"));
    stats.min = std::bit_cast<double>(bits);
    ARDA_RETURN_IF_ERROR(in->GetU64(&bits, "stats max"));
    stats.max = std::bit_cast<double>(bits);
    uint32_t hll_len = 0;
    ARDA_RETURN_IF_ERROR(in->GetU32(&hll_len, "HLL register count"));
    if (hll_len > kMaxHllRegisters) {
      return Status::InvalidArgument(
          StrFormat("implausible HLL register count %u", hll_len));
    }
    std::string_view hll_bytes;
    ARDA_RETURN_IF_ERROR(
        in->GetBytes(&hll_bytes, hll_len, "HLL registers"));
    stats.hll.assign(hll_bytes.begin(), hll_bytes.end());
    uint32_t slot_count = 0;
    ARDA_RETURN_IF_ERROR(in->GetU32(&slot_count, "MinHash slot count"));
    if (slot_count > kMaxMinHashSlots) {
      return Status::InvalidArgument(
          StrFormat("implausible MinHash slot count %u", slot_count));
    }
    stats.minhash.resize(slot_count);
    for (uint32_t s = 0; s < slot_count; ++s) {
      ARDA_RETURN_IF_ERROR(
          in->GetU64(&stats.minhash[s], "MinHash slot"));
    }
    meta->stats.columns.push_back(std::move(stats));
  }
  return Status::Ok();
}

}  // namespace

Result<DataFrame> ReadColumnarString(std::string_view data,
                                     ColumnarMeta* meta) {
  if (meta != nullptr) *meta = ColumnarMeta{};
  // Parse + fully validate the column index, check the whole-payload
  // checksum, then bulk-decode every column.
  internal::V3Index index;
  ARDA_RETURN_IF_ERROR(
      internal::ParseV3Index(data, data.size(), &index));
  if (Fnv1a64(data.substr(internal::kV3HeaderSize)) !=
      index.payload_checksum) {
    return Status::FailedPrecondition(
        "columnar payload checksum mismatch (corrupted file)");
  }
  const size_t rows = static_cast<size_t>(index.rows);
  DataFrame frame;
  for (const internal::V3Column& entry : index.columns) {
    std::string_view validity = data.substr(entry.validity_off, rows);
    std::string_view block = data.substr(entry.data_off, entry.data_len);
    if (entry.type == DataType::kString) {
      ARDA_ASSIGN_OR_RETURN(
          Column col, internal::DecodeV3StringColumn(block, validity,
                                                     entry.name, rows));
      ARDA_RETURN_IF_ERROR(frame.AddColumn(std::move(col)));
    } else {
      ARDA_RETURN_IF_ERROR(frame.AddColumn(internal::DecodeV3NumericColumn(
          block, validity, entry.name, entry.type)));
    }
  }
  ColumnarMeta local_meta;
  ARDA_RETURN_IF_ERROR(internal::DecodeMetaBlockRange(
      data.substr(index.meta_off, index.meta_len), index.cols,
      meta == nullptr ? &local_meta : meta));
  return frame;
}

Result<uint64_t> FileSizeBytes(const std::string& path) {
  std::error_code ec;
  const uintmax_t size = std::filesystem::file_size(path, ec);
  if (ec) {
    return Status::IoError("cannot stat file: " + path + ": " +
                           ec.message());
  }
  return static_cast<uint64_t>(size);
}

Result<DataFrame> ReadColumnar(const std::string& path,
                               ColumnarMeta* meta) {
  ARDA_FAULT_POINT(fault::kColumnarRead);
  trace::StageScope scope("ingest/columnar_read");
  // Stat-based 64-bit sizing. The previous fseek/ftell probe returned a
  // `long` — on ILP32 targets a > 2 GiB cache silently wrapped negative
  // and skipped the reserve — and swallowed failures. The read loop
  // below still appends past the reserved size if the file grows between
  // stat and read, so concurrent rewriters cost a realloc, not bytes.
  ARDA_ASSIGN_OR_RETURN(const uint64_t size, FileSizeBytes(path));
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::IoError("cannot open file: " + path);
  }
  std::string buffer;
  buffer.reserve(static_cast<size_t>(size));
  char block[1 << 16];
  size_t got;
  while ((got = std::fread(block, 1, sizeof(block), f)) > 0) {
    buffer.append(block, got);
  }
  bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) {
    return Status::IoError("failed reading file: " + path);
  }
  Result<DataFrame> frame = ReadColumnarString(buffer, meta);
  if (frame.ok()) {
    metrics::IncrementCounter("ingest.columnar_read_bytes", buffer.size());
    metrics::IncrementCounter("ingest.columnar_read_rows",
                              frame->NumRows());
  }
  return frame;
}

namespace internal {

Status ParseV3Index(std::string_view data, uint64_t file_size,
                    V3Index* out) {
  Cursor in{data};
  std::string_view magic;
  ARDA_RETURN_IF_ERROR(in.GetBytes(&magic, 4, "magic"));
  if (magic != std::string_view(kMagic, sizeof(kMagic))) {
    return Status::InvalidArgument(
        "not a columnar table file (bad magic)");
  }
  uint32_t version = 0;
  ARDA_RETURN_IF_ERROR(in.GetU32(&version, "version"));
  if (version != kFormatVersion) {
    return Status::FailedPrecondition(
        StrFormat("columnar format version skew: file has %u, reader "
                  "supports %u",
                  version, kFormatVersion));
  }
  uint32_t reserved = 0;
  uint64_t index_checksum = 0;
  ARDA_RETURN_IF_ERROR(in.GetU64(&out->rows, "row count"));
  ARDA_RETURN_IF_ERROR(in.GetU32(&out->cols, "column count"));
  ARDA_RETURN_IF_ERROR(in.GetU32(&reserved, "reserved"));
  ARDA_RETURN_IF_ERROR(
      in.GetU64(&out->payload_checksum, "payload checksum"));
  ARDA_RETURN_IF_ERROR(in.GetU64(&out->index_end, "index end"));
  ARDA_RETURN_IF_ERROR(in.GetU64(&index_checksum, "index checksum"));
  if (out->rows > std::numeric_limits<size_t>::max() / 8) {
    return Status::InvalidArgument("columnar row count is implausible");
  }
  if (out->index_end < kV3HeaderSize || out->index_end > file_size ||
      out->index_end > data.size()) {
    return Status::InvalidArgument(
        StrFormat("columnar column index end %llu out of range for "
                  "%llu-byte file",
                  static_cast<unsigned long long>(out->index_end),
                  static_cast<unsigned long long>(file_size)));
  }
  std::string_view index_bytes =
      data.substr(kV3HeaderSize, out->index_end - kV3HeaderSize);
  if (Fnv1a64(index_bytes) != index_checksum) {
    return Status::FailedPrecondition(
        "columnar column index checksum mismatch (corrupted file)");
  }

  // The header lies outside both checksums, so its column count is
  // checked against the index before it sizes anything: an entry takes
  // at least 29 bytes (empty name) and the meta extent 16 more.
  if (uint64_t{out->cols} * 29 + 16 > index_bytes.size()) {
    return Status::InvalidArgument(
        StrFormat("columnar column count %u does not fit a %zu-byte "
                  "column index",
                  out->cols, index_bytes.size()));
  }

  // Every extent is validated against the real file size here, before
  // any caller dereferences payload offsets — on the mmap path this is
  // the only thing standing between a truncated file and SIGBUS.
  Cursor ix{index_bytes};
  out->columns.clear();
  out->columns.reserve(out->cols);
  const uint64_t rows = out->rows;
  for (uint32_t c = 0; c < out->cols; ++c) {
    V3Column col;
    uint32_t name_len = 0;
    ARDA_RETURN_IF_ERROR(ix.GetU32(&name_len, "column name length"));
    std::string_view name;
    ARDA_RETURN_IF_ERROR(ix.GetBytes(&name, name_len, "column name"));
    col.name.assign(name);
    std::string_view type_byte;
    ARDA_RETURN_IF_ERROR(ix.GetBytes(&type_byte, 1, "column type"));
    switch (static_cast<uint8_t>(type_byte[0])) {
      case kTypeDouble:
        col.type = DataType::kDouble;
        break;
      case kTypeInt64:
        col.type = DataType::kInt64;
        break;
      case kTypeString:
        col.type = DataType::kString;
        break;
      default:
        return Status::InvalidArgument(
            StrFormat("unknown columnar column type %u",
                      static_cast<unsigned>(
                          static_cast<uint8_t>(type_byte[0]))));
    }
    ARDA_RETURN_IF_ERROR(
        ix.GetU64(&col.validity_off, "validity offset"));
    ARDA_RETURN_IF_ERROR(ix.GetU64(&col.data_off, "data offset"));
    ARDA_RETURN_IF_ERROR(ix.GetU64(&col.data_len, "data length"));
    if (col.validity_off < out->index_end ||
        col.validity_off > file_size ||
        rows > file_size - col.validity_off) {
      return Status::InvalidArgument(
          StrFormat("column '%s' validity block out of range",
                    col.name.c_str()));
    }
    if (col.data_off < out->index_end || col.data_off > file_size ||
        col.data_len > file_size - col.data_off) {
      return Status::InvalidArgument(
          StrFormat("column '%s' data block out of range",
                    col.name.c_str()));
    }
    if (col.type != DataType::kString) {
      if (col.data_len != rows * 8) {
        return Status::InvalidArgument(
            StrFormat("column '%s' numeric data length %llu does not "
                      "match %llu rows",
                      col.name.c_str(),
                      static_cast<unsigned long long>(col.data_len),
                      static_cast<unsigned long long>(rows)));
      }
      if (col.data_off % 8 != 0) {
        return Status::InvalidArgument(
            StrFormat("column '%s' numeric data misaligned at offset "
                      "%llu",
                      col.name.c_str(),
                      static_cast<unsigned long long>(col.data_off)));
      }
    }
    out->columns.push_back(std::move(col));
  }
  ARDA_RETURN_IF_ERROR(ix.GetU64(&out->meta_off, "meta offset"));
  ARDA_RETURN_IF_ERROR(ix.GetU64(&out->meta_len, "meta length"));
  if (ix.Remaining() != 0) {
    return Status::InvalidArgument(
        StrFormat("columnar column index has %zu trailing bytes",
                  ix.Remaining()));
  }
  if (out->meta_off < out->index_end || out->meta_off > file_size ||
      out->meta_len > file_size - out->meta_off) {
    return Status::InvalidArgument("columnar meta block out of range");
  }
  if (out->meta_off + out->meta_len != file_size) {
    return Status::InvalidArgument(
        StrFormat("columnar data has %llu trailing bytes",
                  static_cast<unsigned long long>(
                      file_size - out->meta_off - out->meta_len)));
  }
  return Status::Ok();
}

Status DecodeMetaBlockRange(std::string_view block, uint32_t cols,
                            ColumnarMeta* meta) {
  Cursor in{block};
  ARDA_RETURN_IF_ERROR(DecodeMetaBlock(&in, cols, meta));
  if (in.Remaining() != 0) {
    return Status::InvalidArgument(
        StrFormat("columnar meta block has %zu trailing bytes",
                  in.Remaining()));
  }
  return Status::Ok();
}

Result<Column> DecodeV3StringColumn(std::string_view block,
                                    std::string_view validity,
                                    std::string name, size_t rows) {
  ARDA_CHECK_EQ(validity.size(), rows);
  Cursor in{block};
  Column col = Column::Empty(std::move(name), DataType::kString);
  col.Reserve(rows);
  for (size_t r = 0; r < rows; ++r) {
    uint32_t len = 0;
    ARDA_RETURN_IF_ERROR(in.GetU32(&len, "string length"));
    std::string_view bytes;
    ARDA_RETURN_IF_ERROR(in.GetBytes(&bytes, len, "string bytes"));
    if (validity[r] != 0) {
      col.AppendString(std::string(bytes));
    } else {
      col.AppendNull();
    }
  }
  if (in.Remaining() != 0) {
    return Status::InvalidArgument(
        StrFormat("string column data block has %zu trailing bytes",
                  in.Remaining()));
  }
  return col;
}

Column DecodeV3NumericColumn(std::string_view block,
                             std::string_view validity, std::string name,
                             DataType type) {
  const size_t rows = validity.size();
  ARDA_CHECK_EQ(block.size(), rows * 8);
  Column col = Column::Empty(name, type);
  if (type == DataType::kDouble) {
    std::vector<double> values(rows);
    simd::DecodeU64LeToDouble(block.data(), rows, values.data());
    col = Column::Double(std::move(name), std::move(values));
  } else {
    ARDA_CHECK(type == DataType::kInt64);
    std::vector<int64_t> values(rows);
    simd::DecodeU64LeToInt64(block.data(), rows, values.data());
    col = Column::Int64(std::move(name), std::move(values));
  }
  col.SetValidity(std::vector<uint8_t>(validity.begin(), validity.end()));
  return col;
}

}  // namespace internal

}  // namespace arda::df
