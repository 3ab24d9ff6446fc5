#include "relational/database_io.h"

#include <charconv>
#include <fstream>
#include <limits>
#include <sstream>

namespace cqcount {
namespace {

// Universe sizes and values must fit a Value.
constexpr uint64_t kValueLimit =
    uint64_t{std::numeric_limits<Value>::max()} + 1;

// Parses `token` as an unsigned decimal below `limit`. Signs, trailing
// characters and overflow all fail.
bool ParseBelow(const std::string& token, uint64_t limit, uint64_t* out) {
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, *out);
  return ec == std::errc() && ptr == end && *out < limit;
}

}  // namespace

StatusOr<Database> ParseDatabase(const std::string& text) {
  Database db;
  std::istringstream in(text);
  std::string line;
  std::string current_relation;
  int current_arity = 0;
  bool saw_universe = false;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    // Strip comments.
    const size_t hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    std::istringstream tokens(line);
    std::string first;
    if (!(tokens >> first)) continue;  // Blank line.

    auto fail = [&](const std::string& message) {
      std::ostringstream msg;
      msg << "line " << line_no << ": " << message;
      return Status::InvalidArgument(msg.str());
    };

    if (first == "universe") {
      // One universe line, before any relation: a later one could shrink
      // the universe below values already stored.
      if (saw_universe) return fail("second 'universe' line");
      std::string size;
      uint64_t n = 0;
      if (!(tokens >> size) || !ParseBelow(size, kValueLimit, &n)) {
        return fail("expected a universe size below 2^32");
      }
      db.set_universe_size(static_cast<uint32_t>(n));
      saw_universe = true;
    } else if (first == "relation") {
      if (!current_relation.empty()) {
        return fail("nested relation block (missing 'end'?)");
      }
      std::string name, arity_token;
      uint64_t arity = 0;
      if (!(tokens >> name >> arity_token)) {
        return fail("expected name and arity");
      }
      if (!ParseBelow(arity_token, kMaxRelationArity + 1, &arity)) {
        return fail("expected an arity of at most 2^20");
      }
      if (!saw_universe) return fail("'universe' must precede relations");
      Status s = db.DeclareRelation(name, static_cast<int>(arity));
      if (!s.ok()) return fail(s.message());
      current_relation = name;
      current_arity = static_cast<int>(arity);
    } else if (first == "end") {
      if (current_relation.empty()) return fail("'end' outside relation");
      current_relation.clear();
    } else {
      if (current_relation.empty()) {
        return fail("unexpected token: " + first);
      }
      Tuple t;
      // "()" denotes the empty tuple of an arity-0 relation (a blank line
      // would be skipped as whitespace); otherwise every token is a value.
      if (first != "()") {
        t.reserve(static_cast<size_t>(current_arity));
        std::string token = first;
        do {
          uint64_t v = 0;
          if (!ParseBelow(token, kValueLimit, &v)) {
            return fail("expected a value below 2^32, got: " + token);
          }
          t.push_back(static_cast<Value>(v));
        } while (tokens >> token);
      }
      if (static_cast<int>(t.size()) != current_arity) {
        return fail("tuple arity mismatch");
      }
      Status s = db.AddFact(current_relation, std::move(t));
      if (!s.ok()) return fail(s.message());
    }
    std::string extra;
    if (tokens >> extra) return fail("unexpected token: " + extra);
  }
  if (!current_relation.empty()) {
    return Status::InvalidArgument("unterminated relation block: " +
                                   current_relation);
  }
  db.Canonicalize();
  return db;
}

StatusOr<Database> ReadDatabaseFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open file: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return ParseDatabase(buffer.str());
}

std::string FormatDatabase(const Database& db) {
  std::ostringstream out;
  out << "universe " << db.universe_size() << "\n";
  for (const std::string& name : db.RelationNames()) {
    const Relation& rel = db.relation(name);
    out << "relation " << name << " " << rel.arity() << "\n";
    for (TupleView t : rel) {
      if (t.size() == 0) {
        out << "()\n";
        continue;
      }
      for (size_t i = 0; i < t.size(); ++i) {
        if (i > 0) out << " ";
        out << t[i];
      }
      out << "\n";
    }
    out << "end\n";
  }
  return out.str();
}

Status WriteDatabaseFile(const Database& db, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::Internal("cannot write file: " + path);
  out << FormatDatabase(db);
  return Status::Ok();
}

}  // namespace cqcount
