#include "elastic/verilog.hpp"

#include <cctype>
#include <sstream>

#include "support/error.hpp"
#include "support/strings.hpp"

namespace elrr::elastic {

std::string sanitize_identifier(const std::string& name) {
  std::string out;
  out.reserve(name.size() + 1);
  for (char c : name) {
    const bool ok = std::isalnum(static_cast<unsigned char>(c)) || c == '_';
    out.push_back(ok ? c : '_');
  }
  if (out.empty() || std::isdigit(static_cast<unsigned char>(out[0]))) {
    out.insert(out.begin(), 'n');
  }
  return out;
}

namespace {

/// Static controller library (control signals only; the datapath is a
/// user concern and is referenced in comments).
constexpr const char* kLibrary = R"(
//----------------------------------------------------------------------
// SELF controller library (control plane only).
//----------------------------------------------------------------------

// Two-slot elastic buffer controller: latency 1, capacity 2.
// INIT_TOKENS in {0,1}: a token-initialized EB models a register.
module elrr_eb #(parameter INIT_TOKENS = 0) (
  input  wire clk,
  input  wire rst,
  input  wire v_in,
  output wire s_in,    // stop to producer
  output wire v_out,
  input  wire s_out    // stop from consumer
);
  reg [1:0] occ;       // 0, 1 or 2 tokens stored
  wire push = v_in  & ~s_in;
  wire pop  = v_out & ~s_out;
  assign v_out = (occ != 2'd0);
  assign s_in  = (occ == 2'd2) & s_out;  // full and not draining
  always @(posedge clk) begin
    if (rst) occ <= INIT_TOKENS[1:0];
    else     occ <= occ + {1'b0, push} - {1'b0, pop};
  end
endmodule

// Lazy join: fires when all inputs are valid and the consumer accepts.
module elrr_join #(parameter N = 2) (
  input  wire [N-1:0] v_in,
  output wire [N-1:0] s_in,
  output wire         v_out,
  input  wire         s_out
);
  assign v_out = &v_in;
  wire transfer = v_out & ~s_out;
  assign s_in = v_in & {N{~transfer}};
endmodule

// Early-evaluation join (DAC'07): fires on the *selected* input alone;
// non-selected inputs receive anti-tokens that cancel late arrivals.
module elrr_ejoin #(parameter N = 2, parameter CNT_W = 8) (
  input  wire               clk,
  input  wire               rst,
  input  wire [N-1:0]       v_in,
  output wire [N-1:0]       s_in,
  input  wire [N-1:0]       sel,    // one-hot guard (select channel)
  output wire               v_out,
  input  wire               s_out,
  output wire               fired
);
  reg [CNT_W-1:0] anti [0:N-1];
  wire [N-1:0] has_anti;
  genvar gi;
  generate
    for (gi = 0; gi < N; gi = gi + 1) begin : g_anti
      assign has_anti[gi] = (anti[gi] != {CNT_W{1'b0}});
    end
  endgenerate
  // Effective valid: a real token not owed to an anti-token.
  wire [N-1:0] v_eff = v_in & ~has_anti;
  assign v_out = |(sel & v_eff);
  assign fired = v_out & ~s_out;
  // Consume: the guard input on firing; any input with a pending
  // anti-token absorbs silently; everything else stalls.
  wire [N-1:0] absorb = v_in & has_anti;
  wire [N-1:0] consume = (sel & {N{fired}}) | absorb;
  assign s_in = v_in & ~consume;
  integer i;
  always @(posedge clk) begin
    if (rst) begin
      for (i = 0; i < N; i = i + 1) anti[i] <= {CNT_W{1'b0}};
    end else begin
      for (i = 0; i < N; i = i + 1) begin
        if (fired & ~sel[i] & ~v_in[i])
          anti[i] <= anti[i] + 1'b1;           // owe one anti-token
        else if (~(fired & ~sel[i]) & absorb[i])
          anti[i] <= anti[i] - 1'b1;           // cancelled a straggler
      end
    end
  end
endmodule

// Eager fork: each branch takes the token as soon as it can; the producer
// is released once every branch has taken it.
module elrr_fork #(parameter N = 2) (
  input  wire         clk,
  input  wire         rst,
  input  wire         v_in,
  output wire         s_in,
  output wire [N-1:0] v_out,
  input  wire [N-1:0] s_out
);
  reg [N-1:0] done;
  wire [N-1:0] take = v_out & ~s_out;
  wire all_done = &(done | take);
  assign v_out = {N{v_in}} & ~done;
  assign s_in = v_in & ~all_done;
  always @(posedge clk) begin
    if (rst) done <= {N{1'b0}};
    else if (v_in) done <= all_done ? {N{1'b0}} : (done | take);
  end
endmodule

// Galois LFSR driving a one-hot select with approximate probabilities
// (16-bit threshold comparison); testbench-side model of the select
// channel, which in a real design comes from the datapath.
module elrr_select_lfsr #(parameter N = 2,
                          parameter [16*N-1:0] THRESH = {16*N{1'b0}},
                          parameter [15:0] SEED = 16'hACE1) (
  input  wire         clk,
  input  wire         rst,
  input  wire         advance,  // consume one select token
  output reg  [N-1:0] sel
);
  reg [15:0] lfsr;
  integer i;
  reg chosen;
  always @(posedge clk) begin
    if (rst) lfsr <= SEED;
    else if (advance)
      lfsr <= {lfsr[14:0], lfsr[15] ^ lfsr[13] ^ lfsr[12] ^ lfsr[10]};
  end
  always @(*) begin
    sel = {N{1'b0}};
    chosen = 1'b0;
    for (i = 0; i < N; i = i + 1) begin
      if (!chosen && lfsr < THRESH[16*i +: 16]) begin
        sel[i] = 1'b1;
        chosen = 1'b1;
      end
    end
    if (!chosen) sel[N-1] = 1'b1;
  end
endmodule
)";

std::string channel_wire(EdgeId e, const std::string& which) {
  return "ch" + std::to_string(e) + "_" + which;
}

}  // namespace

std::string emit_verilog(const Rrg& rrg, const VerilogOptions& options) {
  ELRR_REQUIRE(!rrg.has_telescopic(),
               "Verilog emission models fixed-latency units only; telescopic "
               "wrappers are out of scope (see src/core/README.md)");
  rrg.validate();
  const Digraph& g = rrg.graph();
  const std::string top = sanitize_identifier(options.top_name);

  std::ostringstream os;
  os << "// Generated by ElasticRR: SELF control network for an RRG\n"
     << "// configuration (DAC'09 retiming & recycling with early\n"
     << "// evaluation). Nodes: " << rrg.num_nodes()
     << ", channels: " << rrg.num_edges() << ".\n"
     << "// The datapath is omitted: every v/s pair below shadows a data\n"
     << "// bus of the user's width.\n";
  os << kLibrary;

  // ---------------------------------------------------------------- top
  os << "\nmodule " << top << " (\n  input wire clk,\n  input wire rst,\n"
     << "  output wire [31:0] firings\n);\n";

  // Channel wires: producer side (p) and consumer side (c) of each EB
  // chain; for wires the two coincide.
  for (EdgeId e = 0; e < rrg.num_edges(); ++e) {
    os << "  wire " << channel_wire(e, "pv") << ", " << channel_wire(e, "ps")
       << ", " << channel_wire(e, "cv") << ", " << channel_wire(e, "cs")
       << ";\n";
  }

  // EB chains.
  for (EdgeId e = 0; e < rrg.num_edges(); ++e) {
    const int stages = rrg.buffers(e);
    if (stages == 0) {
      os << "  assign " << channel_wire(e, "cv") << " = "
         << channel_wire(e, "pv") << ";\n";
      os << "  assign " << channel_wire(e, "ps") << " = "
         << channel_wire(e, "cs") << ";\n";
      continue;
    }
    int tokens = std::max(rrg.tokens(e), 0);
    std::string prev_v = channel_wire(e, "pv");
    std::string prev_s = channel_wire(e, "ps");
    for (int k = 0; k < stages; ++k) {
      const std::string v =
          k + 1 == stages ? channel_wire(e, "cv")
                          : "ch" + std::to_string(e) + "_v" + std::to_string(k);
      const std::string s =
          k + 1 == stages ? channel_wire(e, "cs")
                          : "ch" + std::to_string(e) + "_s" + std::to_string(k);
      if (k + 1 != stages) os << "  wire " << v << ", " << s << ";\n";
      // Initialize tokens from the consumer side of the chain.
      const int init = (stages - k) <= tokens ? 1 : 0;
      os << "  elrr_eb #(.INIT_TOKENS(" << init << ")) eb_" << e << "_" << k
         << " (.clk(clk), .rst(rst), .v_in(" << prev_v << "), .s_in(" << prev_s
         << "), .v_out(" << v << "), .s_out(" << s << "));\n";
      prev_v = v;
      prev_s = s;
    }
  }

  // Node controllers: join side + fork side per node.
  std::ostringstream firing_terms;
  for (NodeId n = 0; n < rrg.num_nodes(); ++n) {
    const std::string id = sanitize_identifier(rrg.name(n));
    const auto& in = g.in_edges(n);
    const auto& out = g.out_edges(n);
    os << "\n  // node " << rrg.name(n) << " (delay "
       << format_fixed(rrg.delay(n), 2) << ", "
       << (rrg.is_early(n) ? "early" : "simple") << ")\n";
    os << "  wire " << id << "_v, " << id << "_s;\n";

    if (in.empty()) {
      os << "  assign " << id << "_v = 1'b1;\n";
    } else if (!rrg.is_early(n) && in.size() == 1) {
      // Single input: the channel connects straight through.
      os << "  assign " << id << "_v = " << channel_wire(in[0], "cv")
         << ";\n";
      os << "  assign " << channel_wire(in[0], "cs") << " = " << id
         << "_s;\n";
    } else if (!rrg.is_early(n)) {
      os << "  elrr_join #(.N(" << in.size() << ")) join_" << id << " (.v_in({";
      for (std::size_t i = in.size(); i > 0; --i) {
        os << channel_wire(in[i - 1], "cv") << (i > 1 ? ", " : "");
      }
      os << "}), .s_in({";
      for (std::size_t i = in.size(); i > 0; --i) {
        os << channel_wire(in[i - 1], "cs") << (i > 1 ? ", " : "");
      }
      os << "}), .v_out(" << id << "_v), .s_out(" << id << "_s));\n";
    } else {
      // Select generator thresholds: cumulative 16-bit gamma boundaries.
      os << "  wire [" << in.size() - 1 << ":0] " << id << "_sel;\n";
      os << "  wire " << id << "_fired;\n";
      double cumulative = 0.0;
      os << "  elrr_select_lfsr #(.N(" << in.size() << "), .THRESH({";
      std::vector<std::string> thresholds;
      for (EdgeId e : in) {
        cumulative += rrg.gamma(e);
        const int raw = static_cast<int>(cumulative * 65535.0);
        thresholds.push_back("16'd" + std::to_string(std::min(raw, 65535)));
      }
      for (std::size_t i = thresholds.size(); i > 0; --i) {
        os << thresholds[i - 1] << (i > 1 ? ", " : "");
      }
      os << "})) sel_" << id << " (.clk(clk), .rst(rst), .advance(" << id
         << "_fired), .sel(" << id << "_sel));\n";
      os << "  elrr_ejoin #(.N(" << in.size() << ")) ejoin_" << id
         << " (.clk(clk), .rst(rst), .v_in({";
      for (std::size_t i = in.size(); i > 0; --i) {
        os << channel_wire(in[i - 1], "cv") << (i > 1 ? ", " : "");
      }
      os << "}), .s_in({";
      for (std::size_t i = in.size(); i > 0; --i) {
        os << channel_wire(in[i - 1], "cs") << (i > 1 ? ", " : "");
      }
      os << "}), .sel(" << id << "_sel), .v_out(" << id << "_v), .s_out("
         << id << "_s), .fired(" << id << "_fired));\n";
    }

    if (out.empty()) {
      os << "  assign " << id << "_s = 1'b0;\n";
    } else if (out.size() == 1) {
      os << "  assign " << channel_wire(out[0], "pv") << " = " << id
         << "_v;\n";
      os << "  assign " << id << "_s = " << channel_wire(out[0], "ps")
         << ";\n";
    } else {
      os << "  elrr_fork #(.N(" << out.size() << ")) fork_" << id
         << " (.clk(clk), .rst(rst), .v_in(" << id << "_v), .s_in(" << id
         << "_s), .v_out({";
      for (std::size_t i = out.size(); i > 0; --i) {
        os << channel_wire(out[i - 1], "pv") << (i > 1 ? ", " : "");
      }
      os << "}), .s_out({";
      for (std::size_t i = out.size(); i > 0; --i) {
        os << channel_wire(out[i - 1], "ps") << (i > 1 ? ", " : "");
      }
      os << "}));\n";
    }
    if (n == 0) {
      firing_terms << id << "_v & ~" << id << "_s";
    }
  }

  os << "\n  // Reference-node firing counter (all nodes share the same\n"
     << "  // long-run rate in a strongly connected system).\n";
  os << "  reg [31:0] fire_count;\n"
     << "  always @(posedge clk) begin\n"
     << "    if (rst) fire_count <= 32'd0;\n"
     << "    else if (" << firing_terms.str()
     << ") fire_count <= fire_count + 32'd1;\n"
     << "  end\n"
     << "  assign firings = fire_count;\n";
  os << "endmodule\n";

  // ---------------------------------------------------------- testbench
  os << "\nmodule " << top << "_tb;\n"
     << "  reg clk = 1'b0, rst = 1'b1;\n"
     << "  wire [31:0] firings;\n"
     << "  " << top << " dut (.clk(clk), .rst(rst), .firings(firings));\n"
     << "  always #5 clk = ~clk;\n"
     << "  initial begin\n"
     << "    repeat (4) @(posedge clk);\n"
     << "    rst = 1'b0;\n"
     << "    repeat (" << options.testbench_cycles << ") @(posedge clk);\n"
     << "    $display(\"throughput %f\", firings / "
     << format_fixed(static_cast<double>(options.testbench_cycles), 1)
     << ");\n"
     << "    $finish;\n"
     << "  end\n"
     << "endmodule\n";
  return os.str();
}

}  // namespace elrr::elastic
