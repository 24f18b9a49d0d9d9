// certquic_analyze — the repo's one static gate over src/ (see
// analyze_core.hpp for the scanner, the layering and hygiene passes,
// and lint_core.hpp for the five determinism lint rules).
//
// Usage:
//   certquic_analyze --root <srcdir> --layers <spec>
//                    [--waivers <file>] [--out-dir <dir>]
//                    [--self-scan <toolsdir>] [files...]
//
// With no file arguments, every .hpp/.cpp under --root is scanned.
// One run executes all passes — lint + layering + hygiene — against
// every waiver, so this is also the complete stale-waiver check.
// --out-dir writes depgraph.json and depgraph.dot there.
// --self-scan additionally runs the nondet-source rule over the given
// tools directory: the analyzer obeys its own no-wall-clock rule.
// Exit status: 0 clean, 1 findings or stale waivers, 2 usage/IO error.
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "analyze_core.hpp"
#include "lint_core.hpp"
#include "util/errors.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --root <srcdir> --layers <spec> "
               "[--waivers <file>] [--out-dir <dir>] "
               "[--self-scan <toolsdir>] [files...]\n",
               argv0);
  return 2;
}

void write_artifact(const std::string& path, const std::string& content) {
  std::ofstream out{path, std::ios::binary};
  if (!out) {
    throw certquic::config_error("cannot write " + path);
  }
  out << content;
}

}  // namespace

int main(int argc, char** argv) {
  std::string root;
  std::string layers_path;
  std::string waiver_path;
  std::string out_dir;
  std::string self_scan_dir;
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--root") == 0 && i + 1 < argc) {
      root = argv[++i];
    } else if (std::strcmp(argv[i], "--layers") == 0 && i + 1 < argc) {
      layers_path = argv[++i];
    } else if (std::strcmp(argv[i], "--waivers") == 0 && i + 1 < argc) {
      waiver_path = argv[++i];
    } else if (std::strcmp(argv[i], "--out-dir") == 0 && i + 1 < argc) {
      out_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--self-scan") == 0 && i + 1 < argc) {
      self_scan_dir = argv[++i];
    } else if (argv[i][0] == '-') {
      return usage(argv[0]);
    } else {
      files.emplace_back(argv[i]);
    }
  }
  if (root.empty() || layers_path.empty()) {
    return usage(argv[0]);
  }

  try {
    const certquic::analyze::layer_spec spec =
        certquic::analyze::load_layer_spec(layers_path);
    std::vector<certquic::lint::waiver> waivers;
    if (!waiver_path.empty()) {
      waivers = certquic::lint::load_waivers(waiver_path);
    }
    if (files.empty()) {
      files = certquic::lint::collect_sources(root);
    }

    certquic::analyze::analysis_result result =
        certquic::analyze::analyze_tree(files, root, spec);

    // The self-scan: nondet-source over the tool sources themselves,
    // reported under "<dirname>/..." so waivers could name them (none
    // do at head — the tools are clean with zero waivers).
    std::size_t self_scanned = 0;
    if (!self_scan_dir.empty()) {
      const std::string prefix =
          std::filesystem::path(self_scan_dir).filename().string() + "/";
      for (const std::string& file :
           certquic::lint::collect_sources(self_scan_dir)) {
        std::ifstream in{file, std::ios::binary};
        if (!in) {
          throw certquic::config_error("cannot read " + file);
        }
        std::string content{std::istreambuf_iterator<char>(in),
                            std::istreambuf_iterator<char>()};
        const std::string relative =
            prefix +
            std::filesystem::relative(file, self_scan_dir).generic_string();
        std::vector<certquic::lint::finding> hits =
            certquic::lint::lint_nondet_only(relative, content);
        result.findings.insert(result.findings.end(),
                               std::make_move_iterator(hits.begin()),
                               std::make_move_iterator(hits.end()));
        ++self_scanned;
      }
    }

    const certquic::lint::report rep =
        certquic::lint::apply_waivers(std::move(result.findings), waivers);

    if (!out_dir.empty()) {
      std::filesystem::create_directories(out_dir);
      const std::string root_name =
          std::filesystem::path(root).filename().string();
      write_artifact(
          out_dir + "/depgraph.json",
          certquic::analyze::depgraph_json(result.graph, spec, root_name));
      write_artifact(out_dir + "/depgraph.dot",
                     certquic::analyze::depgraph_dot(result.graph, spec));
    }

    for (const certquic::lint::finding& f : rep.findings) {
      std::printf("%s:%zu: [%s] %s\n", f.path.c_str(), f.line,
                  f.rule.c_str(), f.message.c_str());
      if (!f.source_line.empty()) {
        std::printf("    %s\n", f.source_line.c_str());
      }
    }
    for (const certquic::lint::waiver& w : rep.unused_waivers) {
      std::printf(
          "%s:%zu: [stale-waiver] waiver matches no finding — remove it "
          "(%s|%s|%s)\n",
          waiver_path.c_str(), w.file_line, w.rule.c_str(), w.path.c_str(),
          w.substring.c_str());
    }
    if (rep.clean()) {
      std::printf(
          "certquic_analyze: %zu files clean (%zu modules, %zu edges, "
          "%zu tool files self-scanned)\n",
          files.size(), result.graph.modules.size(),
          result.graph.edges.size(), self_scanned);
      return 0;
    }
    std::printf("certquic_analyze: %zu finding(s), %zu stale waiver(s)\n",
                rep.findings.size(), rep.unused_waivers.size());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "certquic_analyze: %s\n", e.what());
    return 2;
  }
}
