// Plain-text database serialisation.
//
// Format (whitespace separated, '#' starts a comment):
//   universe 100
//   relation R 2
//   0 1
//   2 3
//   end
//   relation S 1
//   5
//   end
// The text is untrusted: ParseDatabase rejects with INVALID_ARGUMENT and
// the line number anything but one `universe` line before the first
// relation, unsigned decimal sizes and values below 2^32, arities of at
// most kMaxRelationArity, and lines with nothing after their last value.
#ifndef CQCOUNT_RELATIONAL_DATABASE_IO_H_
#define CQCOUNT_RELATIONAL_DATABASE_IO_H_

#include <iosfwd>
#include <string>

#include "relational/structure.h"
#include "util/status.h"

namespace cqcount {

/// Parses a database from text.
StatusOr<Database> ParseDatabase(const std::string& text);

/// Reads a database from a file.
StatusOr<Database> ReadDatabaseFile(const std::string& path);

/// Serialises `db` in the text format.
std::string FormatDatabase(const Database& db);

/// Writes `db` to a file.
Status WriteDatabaseFile(const Database& db, const std::string& path);

}  // namespace cqcount

#endif  // CQCOUNT_RELATIONAL_DATABASE_IO_H_
