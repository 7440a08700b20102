// Markdown link lint for the repo's documentation set.
//
//   mig_doc_lint [--symbols <source-file> <name>[,<name>...]]...
//                README.md DESIGN.md docs/trace-schema.md ...
//
// For every inline link `[text](target)` in the given files it checks that
// the target resolves: relative file targets must exist on disk (relative to
// the linking file's directory), and `#anchor` fragments — both same-file
// and `other.md#anchor` — must match a heading in the target file under
// GitHub's slug rules (lowercase, punctuation stripped, spaces to hyphens).
// External schemes (http/https/mailto) are skipped. Fenced code blocks are
// ignored on both sides: links inside them are not checked and headings
// inside them do not exist.
//
// Each --symbols option adds a stale-name check: a document that names one
// of the listed identifiers (as a whole word, code blocks included) fails
// unless <source-file> still contains it — so prose cannot outlive the
// function it describes.
//
// Exit 0 iff every link in every file resolves and no document names a
// vanished identifier; problems print one line each to stderr. The `doc_lint` ctest target runs this over the top-level
// docs so a renamed section or moved file fails CI instead of shipping a
// dead link.
#include <cctype>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace {

struct Problem {
  std::string file;
  size_t line;
  std::string what;
};

std::vector<Problem> g_problems;

void fail(const std::string& file, size_t line, const std::string& what) {
  g_problems.push_back({file, line, what});
}

bool read_file(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  *out = buf.str();
  return true;
}

// GitHub's heading-to-anchor slug: strip formatting backticks, lowercase,
// drop everything but alphanumerics/spaces/hyphens/underscores, then turn
// spaces into hyphens.
std::string slugify(const std::string& heading) {
  std::string slug;
  for (char c : heading) {
    unsigned char u = static_cast<unsigned char>(c);
    if (std::isalnum(u)) {
      slug.push_back(static_cast<char>(std::tolower(u)));
    } else if (c == ' ' || c == '-' || c == '_') {
      slug.push_back(c == ' ' ? '-' : c);
    }
    // backticks, dots, parens, etc. vanish
  }
  return slug;
}

// All heading anchors in a markdown document, fenced blocks excluded.
// Duplicate headings get GitHub's -1/-2... suffixes.
std::set<std::string> collect_anchors(const std::string& text) {
  std::set<std::string> anchors;
  std::map<std::string, int> seen;
  std::istringstream in(text);
  std::string line;
  bool in_fence = false;
  while (std::getline(in, line)) {
    if (line.rfind("```", 0) == 0) {
      in_fence = !in_fence;
      continue;
    }
    if (in_fence) continue;
    size_t hashes = 0;
    while (hashes < line.size() && line[hashes] == '#') ++hashes;
    if (hashes == 0 || hashes > 6 || hashes >= line.size() ||
        line[hashes] != ' ')
      continue;
    std::string slug = slugify(line.substr(hashes + 1));
    int n = seen[slug]++;
    anchors.insert(n == 0 ? slug : slug + "-" + std::to_string(n));
  }
  return anchors;
}

std::string dirname_of(const std::string& path) {
  size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? std::string() : path.substr(0, slash);
}

// Lexically resolves `target` against `base_dir`, folding "..". Good enough
// for repo-relative doc links; no symlink chasing.
std::string join_path(const std::string& base_dir, const std::string& target) {
  std::vector<std::string> parts;
  auto push_parts = [&](const std::string& p) {
    std::istringstream in(p);
    std::string seg;
    while (std::getline(in, seg, '/')) {
      if (seg.empty() || seg == ".") continue;
      if (seg == "..") {
        if (!parts.empty()) parts.pop_back();
      } else {
        parts.push_back(seg);
      }
    }
  };
  push_parts(base_dir);
  push_parts(target);
  std::string joined = (!base_dir.empty() && base_dir[0] == '/') ? "/" : "";
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) joined.push_back('/');
    joined += parts[i];
  }
  return joined;
}

// Identifiers a document may only name while a source file defines them.
struct SymbolCheck {
  std::string source_path;
  std::string source_text;
  std::vector<std::string> names;
};

std::vector<SymbolCheck> g_symbol_checks;

bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

// True iff `name` occurs in `text` with no identifier character on either
// side.
bool mentions(const std::string& text, const std::string& name) {
  for (size_t pos = text.find(name); pos != std::string::npos;
       pos = text.find(name, pos + 1)) {
    bool left = pos == 0 || !is_ident_char(text[pos - 1]);
    size_t end = pos + name.size();
    bool right = end == text.size() || !is_ident_char(text[end]);
    if (left && right) return true;
  }
  return false;
}

void check_symbols(const std::string& path, const std::string& text) {
  for (const SymbolCheck& check : g_symbol_checks) {
    for (const std::string& name : check.names) {
      if (mentions(check.source_text, name)) continue;
      std::istringstream in(text);
      std::string line;
      for (size_t lineno = 1; std::getline(in, line); ++lineno) {
        if (!mentions(line, name)) continue;
        fail(path, lineno,
             "names `" + name + "`, which " + check.source_path +
                 " no longer contains");
        break;
      }
    }
  }
}

bool is_external(const std::string& target) {
  return target.rfind("http://", 0) == 0 || target.rfind("https://", 0) == 0 ||
         target.rfind("mailto:", 0) == 0;
}

void check_document(const std::string& path) {
  std::string text;
  if (!read_file(path, &text)) {
    fail(path, 0, "cannot open");
    return;
  }
  check_symbols(path, text);
  std::set<std::string> own_anchors = collect_anchors(text);
  std::map<std::string, std::set<std::string>> anchor_cache;
  const std::string base_dir = dirname_of(path);

  std::istringstream in(text);
  std::string line;
  size_t lineno = 0;
  bool in_fence = false;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.rfind("```", 0) == 0) {
      in_fence = !in_fence;
      continue;
    }
    if (in_fence) continue;
    // Scan for [text](target); nested brackets in link text are rare enough
    // in these docs that a flat scan is fine.
    for (size_t pos = 0; (pos = line.find('[', pos)) != std::string::npos;
         ++pos) {
      size_t close = line.find(']', pos);
      if (close == std::string::npos || close + 1 >= line.size() ||
          line[close + 1] != '(')
        continue;
      size_t end = line.find(')', close + 2);
      if (end == std::string::npos) continue;
      std::string target = line.substr(close + 2, end - close - 2);
      pos = end;
      if (target.empty()) {
        fail(path, lineno, "empty link target");
        continue;
      }
      if (is_external(target)) continue;

      std::string file_part = target;
      std::string anchor;
      if (size_t hash = target.find('#'); hash != std::string::npos) {
        file_part = target.substr(0, hash);
        anchor = target.substr(hash + 1);
      }

      std::string resolved = path;  // same-file anchor by default
      if (!file_part.empty()) {
        resolved = join_path(base_dir, file_part);
        std::ifstream probe(resolved, std::ios::binary);
        if (!probe) {
          fail(path, lineno, "broken link: " + target + " (no such file " +
                                 resolved + ")");
          continue;
        }
      }
      if (anchor.empty()) continue;

      const std::set<std::string>* anchors = &own_anchors;
      if (!file_part.empty()) {
        auto it = anchor_cache.find(resolved);
        if (it == anchor_cache.end()) {
          std::string other;
          if (!read_file(resolved, &other)) {
            fail(path, lineno, "unreadable link target: " + resolved);
            continue;
          }
          it = anchor_cache.emplace(resolved, collect_anchors(other)).first;
        }
        anchors = &it->second;
      }
      if (anchors->count(anchor) == 0)
        fail(path, lineno,
             "broken anchor: " + target + " (no heading slugs to '" + anchor +
                 "' in " + resolved + ")");
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  int first_doc = 1;
  while (first_doc < argc && std::string(argv[first_doc]) == "--symbols") {
    if (first_doc + 2 >= argc) break;
    SymbolCheck check;
    check.source_path = argv[first_doc + 1];
    if (!read_file(check.source_path, &check.source_text)) {
      std::fprintf(stderr, "cannot open %s\n", check.source_path.c_str());
      return 2;
    }
    std::istringstream names(argv[first_doc + 2]);
    for (std::string name; std::getline(names, name, ',');)
      if (!name.empty()) check.names.push_back(name);
    g_symbol_checks.push_back(std::move(check));
    first_doc += 3;
  }
  if (first_doc >= argc) {
    std::fprintf(stderr,
                 "usage: %s [--symbols <source-file> <name>[,<name>...]]... "
                 "<file.md>...\n",
                 argv[0]);
    return 2;
  }
  for (int i = first_doc; i < argc; ++i) check_document(argv[i]);
  for (const Problem& p : g_problems)
    std::fprintf(stderr, "%s:%zu: %s\n", p.file.c_str(), p.line, p.what.c_str());
  if (g_problems.empty())
    std::printf("%d file(s): all links OK\n", argc - first_doc);
  return g_problems.empty() ? 0 : 1;
}
