// Tests of the benchmark's quantile, digest, stamp and ledger helpers.
// Plain executable: prints each failed check and exits nonzero.
#include <cmath>
#include <iostream>
#include <ostream>
#include <string>

#include "util.hpp"

namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::cerr << "FAILED: " << what << "\n";
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

void quantiles() {
  using perfbench::quantile;
  check(quantile({}, 0.5).n == 0 && quantile({}, 0.5).value == 0.0,
        "empty samples give {0, 0}");
  check(near(quantile({7.0}, 0.99).value, 7.0), "one sample is every quantile");
  // Unsorted input; distinct samples sit at m = (i + 1/2) / n.
  const std::vector<double> s = {4.0, 1.0, 3.0, 2.0};
  check(near(quantile(s, 0.0).value, 1.0), "q=0 is the minimum");
  check(near(quantile(s, 1.0).value, 4.0), "q=1 is the maximum");
  check(near(quantile(s, 0.5).value, 2.5), "median interpolates 2 and 3");
  check(near(quantile(s, 0.85).value, 3.9), "p85 interpolates 3 and 4");
  check(quantile(s, 0.5).n == 4, "quantile carries its sample count");
  check(near(quantile(s, 2.0).value, 4.0), "q above 1 clamps");
  // Never a bucket bound: 1000 samples 0..999 give p999 = 998.5.
  std::vector<double> big;
  for (int i = 0; i < 1000; ++i) big.push_back(i);
  check(near(quantile(big, 0.999).value, 998.5), "p999 interpolates");
  // Ties: 10 holds 3/4 of the mass (middle 0.375), 20 the rest (0.875).
  check(near(quantile({10.0, 20.0, 10.0, 10.0}, 0.5).value, 12.5),
        "tied samples interpolate between value midpoints");
  check(near(quantile({10.0, 10.0, 10.0, 20.0, 20.0}, 0.5).value, 14.0),
        "the result follows the share of each tied value");
  check(near(perfbench::median({5.0, 1.0, 3.0}), 3.0), "odd-length median");
}

void digests() {
  using perfbench::Digest;
  // FNV-1a 64 reference values.
  check(Digest{}.hex() == "cbf29ce484222325", "empty digest is the offset basis");
  check(Digest{}.bytes("a", 1).hex() == "af63dc4c8601ec8c", "FNV-1a of 'a'");
  check(Digest{}.f64(0.1).value() == Digest{}.f64(0.1).value(),
        "digests are deterministic");
  check(Digest{}.f64(1.0).value() != Digest{}.f64(std::nextafter(1.0, 2.0)).value(),
        "a one-ulp change changes the digest");
  check(Digest{}.f64(0.0).value() != Digest{}.f64(-0.0).value(),
        "doubles fold in by bit pattern");
  check(Digest{}.str("ab").str("c").value() != Digest{}.str("a").str("bc").value(),
        "strings are length-prefixed");
  // The streaming buffer digests exactly the bytes written through it.
  perfbench::DigestBuf buf;
  std::ostream os{&buf};
  os << "hello " << 42 << '\n';
  os.flush();
  check(buf.digest().value() == Digest{}.bytes("hello 42\n", 9).value(),
        "DigestBuf hashes the written text");
}

void stamps() {
  perfbench::Stamp s;
  s.nproc = 4;
  s.lanes = 2;
  s.compiler = "gcc 12.2.0";
  s.build_type = "Release";
  s.git_sha = "abc\"d";
  s.seed = -3;
  s.input_set = 6;
  check(s.json() ==
            "{\"nproc\": 4, \"lanes\": 2, \"compiler\": \"gcc 12.2.0\", "
            "\"build_type\": \"Release\", \"git_sha\": \"abc\\\"d\", "
            "\"seed\": -3, \"input_set\": 6}",
        "stamp JSON carries every field, escaped");
  check(!perfbench::compiler_id().empty(), "compiler id is known");
  using perfbench::input_set;
  check(input_set(1, 8) == 1 && input_set(8, 8) == 8 && input_set(9, 8) == 1,
        "seeds cycle through the input sets");
  check(input_set(0, 8) == 8 && input_set(-7, 8) == 1,
        "non-positive seeds map into range");
}

void ledgers() {
  perfbench::Ledger l;
  l.set("b", 0.1, "s");
  l.set("a", 3.0, "count");
  l.set("b", 0.25, "s");
  check(l.size() == 2 && l.get("b") == 0.25, "set overwrites by name");
  perfbench::Ledger other;
  other.set("b", 9.0, "s");
  other.set("c", 1.5, "ms");
  perfbench::Ledger merged = l;
  merged.merge_missing(other);
  check(merged.size() == 3 && merged.get("b") == 0.25 && merged.get("c") == 1.5,
        "merge_missing adds new names and keeps existing values");
  check(l.json() ==
            "{\"a\": {\"value\": 3, \"unit\": \"count\"}, "
            "\"b\": {\"value\": 0.25, \"unit\": \"s\"}}",
        "ledger prints sorted name/value/unit records");
  check(perfbench::num(0.1) == "0.1" && perfbench::num(1.0 / 3) == "0.3333333333333333",
        "numbers print with all their digits");
  check(perfbench::num(std::nan("")) == "null", "NaN prints as null");
}

}  // namespace

int main() {
  quantiles();
  digests();
  stamps();
  ledgers();
  if (failures == 0) std::cout << "perfbench util tests: all passed\n";
  return failures == 0 ? 0 : 1;
}
