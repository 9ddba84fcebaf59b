#ifndef ARDA_DATAFRAME_COLUMNAR_IO_H_
#define ARDA_DATAFRAME_COLUMNAR_IO_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "dataframe/column_stats.h"
#include "dataframe/data_frame.h"
#include "util/status.h"

/// \file
/// Binary columnar snapshot format (`.ardac`) for DataFrames — the table
/// cache behind `DataRepository::LoadDirectory`. Repeated runs over the
/// same candidate pool deserialize columns with a handful of bulk reads
/// instead of re-parsing and re-inferring CSV text.
///
/// Layout (all integers little-endian; full spec in
/// docs/columnar_format.md):
///
///   [0)  magic "ARDC" (4 bytes)
///   [4)  u32 format version (3, the only version read or written)
///   [8)  u64 row count
///   [16) u32 column count
///   [20) u32 reserved (0)
///   [24) u64 FNV-1a checksum of bytes [48, EOF)
///   [32) u64 index_end: offset one past the column index
///   [40) u64 FNV-1a checksum of the column index, bytes [48, index_end)
///   [48) column index, per column in frame order:
///          u32 name length, name bytes
///          u8 type (0 = double, 1 = int64, 2 = string)
///          u64 validity offset, u64 data offset, u64 data length
///        then u64 meta offset, u64 meta length
///   [index_end) column payload blocks, addressed only through the index:
///          validity: `rows` bytes, one 0/1 byte per row (1 = valid)
///          numeric data: rows * 8 bytes at an 8-byte-aligned offset
///          string data: u32 length + bytes per row (nulls: length 0)
///        and the meta block ("ARDM", fingerprint + stats catalog);
///        EOF == meta offset + meta length
///
/// The fixed-offset index is what makes the file mmap-able (see
/// dataframe/mapped_columnar.h): a mapped open validates the header, the
/// index checksum and every recorded extent against the real file size
/// before the first payload access, so truncation surfaces as Status —
/// never SIGBUS — and validity/numeric blocks can then be borrowed
/// zero-copy straight out of the mapping.
///
/// Readers validate magic, version, checksum and every length before
/// touching the data, and return `Status` — never crash — on truncated,
/// corrupted or version-skewed input. Any version other than 3 is a
/// version skew; the cache is derived from its CSV, so callers treat it
/// like any other failed read and re-parse. A corrupt meta block fails
/// the read the same way.

namespace arda::df {

/// Sidecar metadata persisted with a cached table: a fingerprint of the
/// source CSV (for content-based cache freshness) and the per-column
/// statistics catalog. `source_size`/`source_hash` of 0 and an empty
/// `stats` mean "unknown" (a file written with a null `meta`).
struct ColumnarMeta {
  uint64_t source_size = 0;
  uint64_t source_hash = 0;
  TableStats stats;
};

/// Serializes `frame` into the `.ardac` byte format (version 3). With a
/// null `meta` the meta block carries no fingerprint and no stats.
std::string WriteColumnarString(const DataFrame& frame,
                                const ColumnarMeta* meta = nullptr);

/// Writes `frame` to `path` in the `.ardac` format. The bytes land in a
/// sibling temp file first and are rename()d into place, so a concurrent
/// reader — in particular an mmap of the previous cache generation —
/// keeps its old inode and never observes a truncated or torn file.
Status WriteColumnar(const DataFrame& frame, const std::string& path,
                     const ColumnarMeta* meta = nullptr);

/// Deserializes a `.ardac` byte buffer. Fails with InvalidArgument on bad
/// magic / truncation / trailing garbage / corrupted lengths, and with
/// FailedPrecondition on a version other than 3 or a checksum mismatch.
/// When `meta` is non-null it receives the decoded meta block.
Result<DataFrame> ReadColumnarString(std::string_view data,
                                     ColumnarMeta* meta = nullptr);

/// Reads a `.ardac` file eagerly (full buffer + checksum validation).
/// Carries the `fault::kColumnarRead` injection site (and
/// `fault::kStatsDecode` inside the meta-block decode), so the
/// cache-fallback path is testable under ARDA_FAULT.
Result<DataFrame> ReadColumnar(const std::string& path,
                               ColumnarMeta* meta = nullptr);

/// 64-bit size of `path` from filesystem metadata. Unlike the old
/// `fseek`+`ftell` probe this never truncates past 2 GiB (ftell returns
/// a `long`) and failure is an explicit IoError instead of a silent
/// zero-byte reserve.
Result<uint64_t> FileSizeBytes(const std::string& path);

}  // namespace arda::df

#endif  // ARDA_DATAFRAME_COLUMNAR_IO_H_
