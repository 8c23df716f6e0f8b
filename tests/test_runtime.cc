/**
 * @file
 * Planned-runtime tests: serial/threaded backend parity on the model
 * zoo, determinism across thread counts, arena aliasing correctness
 * on DAGs with skip connections and multi-consumer nodes, and plan
 * memory accounting.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "models/model_zoo.h"
#include "nn/basic_layers.h"
#include "nn/conv.h"
#include "nn/runtime.h"

using namespace eyecod;
using namespace eyecod::nn;

namespace {

/** Deterministic test input for every declared graph input. */
std::vector<Tensor>
makeInputs(const Graph &g, uint64_t salt = 0)
{
    std::vector<Tensor> inputs;
    for (int id : g.inputIds()) {
        Tensor t(g.nodeShape(id));
        for (size_t i = 0; i < t.size(); ++i)
            t.data()[i] =
                float(double((i * 2654435761u + salt) % 997) / 997.0) -
                0.5f;
        inputs.push_back(std::move(t));
    }
    return inputs;
}

void
expectTensorsNear(const Tensor &a, const Tensor &b, double tol)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i)
        ASSERT_NEAR(a.data()[i], b.data()[i], tol) << "element " << i;
}

void
expectTensorsIdentical(const Tensor &a, const Tensor &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i)
        ASSERT_EQ(a.data()[i], b.data()[i]) << "element " << i;
}

/**
 * A small DAG exercising the arena's hard cases: a value consumed by
 * two later nodes (multi-consumer), a skip connection spanning
 * several steps, and a concat joining near and far values.
 */
Graph
buildSkipDag()
{
    Graph g("skip-dag");
    const Shape s{4, 12, 12};
    const int input = g.addInput(Shape{1, 12, 12});

    ConvSpec c0;
    c0.in = Shape{1, 12, 12};
    c0.out_channels = 4;
    c0.kernel = 3;
    c0.seed = 11;
    const int a = g.emplace<Conv2d>({input}, "a", c0);

    const int b = g.emplace<Activation>({a}, "b", s, ActFn::Relu);

    ConvSpec c1;
    c1.in = s;
    c1.out_channels = 4;
    c1.kernel = 3;
    c1.seed = 12;
    const int c = g.emplace<Conv2d>({b}, "c", c1);

    // b is consumed here a second time (multi-consumer), and the
    // output must not alias either argument.
    const int d = g.emplace<Add>({b, c}, "d", s, false);

    // a skips over three steps to be concatenated with d.
    const int e = g.emplace<Concat>({d, a}, "e", s, s);

    ConvSpec c2;
    c2.in = Shape{8, 12, 12};
    c2.out_channels = 2;
    c2.kernel = 1;
    c2.seed = 13;
    g.emplace<Conv2d>({e}, "f", c2);
    return g;
}

/**
 * A small chain with every weighted layer kind: generic, depth-wise
 * and 8-bit point-wise convolutions, an 8-bit fully-connected layer
 * and a MatMul.
 */
Graph
buildWeightedChain()
{
    Graph g("weighted-chain");
    int x = g.addInput(Shape{2, 12, 12});

    ConvSpec generic;
    generic.in = g.nodeShape(x);
    generic.out_channels = 4;
    generic.kernel = 3;
    generic.seed = 21;
    x = g.emplace<Conv2d>({x}, "generic", generic);

    ConvSpec depthwise;
    depthwise.in = g.nodeShape(x);
    depthwise.out_channels = 4;
    depthwise.kernel = 3;
    depthwise.stride = 2;
    depthwise.depthwise = true;
    depthwise.seed = 22;
    x = g.emplace<Conv2d>({x}, "depthwise", depthwise);

    ConvSpec pointwise;
    pointwise.in = g.nodeShape(x);
    pointwise.out_channels = 6;
    pointwise.kernel = 1;
    pointwise.quant_bits = 8;
    pointwise.seed = 23;
    x = g.emplace<Conv2d>({x}, "pointwise", pointwise);

    x = g.emplace<FullyConnected>({x}, "fc", g.nodeShape(x), 8, true, 8,
                                  uint64_t(24));
    g.emplace<MatMul>({x}, "matmul", 1, 8, 3, uint64_t(25));
    return g;
}

} // namespace

TEST(ExecutionPlan, ReusesArenaSlots)
{
    const Graph g = models::buildRitNet(32, 32, 0);
    const ExecutionPlan plan(g);
    const PlanStats &stats = plan.stats();

    // Fewer physical slots than scheduled steps, and a footprint
    // strictly below eager materialization of every node output.
    EXPECT_LT(stats.arena_slots, plan.steps().size());
    EXPECT_LT(stats.arena_elements, stats.eager_elements);
    EXPECT_LT(stats.peak_live_elements, stats.eager_elements);
    EXPECT_GE(stats.arena_elements, stats.peak_live_elements);
}

TEST(ExecutionPlan, OutputNeverAliasesStepInputs)
{
    const Graph g = buildSkipDag();
    const ExecutionPlan plan(g);
    for (const ExecutionPlan::Step &step : plan.steps()) {
        for (int arg : step.arg_nodes) {
            if (plan.inputIndex(arg) >= 0)
                continue; // external input, not in the arena
            EXPECT_NE(step.slot, plan.valueSlot(arg))
                << "step for node " << step.node
                << " writes into the slot of its own input " << arg;
        }
    }
}

TEST(Runtime, SkipDagMatchesEagerExactly)
{
    const Graph g = buildSkipDag();
    const std::vector<Tensor> inputs = makeInputs(g);
    const Tensor eager = runEager(g, inputs);

    const ExecutionPlan plan(g);
    SerialBackend serial;
    expectTensorsIdentical(serial.run(plan, inputs), eager);

    ThreadedBackend threaded(4);
    expectTensorsIdentical(threaded.run(plan, inputs), eager);
}

TEST(Runtime, RepeatedRunsReuseArenaAndStayIdentical)
{
    const Graph g = buildSkipDag();
    const ExecutionPlan plan(g);
    SerialBackend backend;
    const std::vector<Tensor> inputs_a = makeInputs(g, 1);
    const std::vector<Tensor> inputs_b = makeInputs(g, 2);

    const Tensor first_a = backend.run(plan, inputs_a);
    // Interleave different inputs so stale arena contents from the
    // previous run would surface as a mismatch.
    const Tensor first_b = backend.run(plan, inputs_b);
    const Tensor second_a = backend.run(plan, inputs_a);

    expectTensorsIdentical(first_a, second_a);
    expectTensorsIdentical(first_b, runEager(g, inputs_b));
}

TEST(Runtime, BackendSurvivesPlanSwitch)
{
    const Graph g1 = buildSkipDag();
    const Graph g2 = models::buildRitNet(32, 32, 0);
    const ExecutionPlan p1(g1);
    const ExecutionPlan p2(g2);
    SerialBackend backend;

    const Tensor r1 = backend.run(p1, makeInputs(g1));
    const Tensor r2 = backend.run(p2, makeInputs(g2));
    const Tensor r1_again = backend.run(p1, makeInputs(g1));

    expectTensorsIdentical(r1, r1_again);
    expectTensorsIdentical(r2, runEager(g2, makeInputs(g2)));
}

TEST(Runtime, SerialThreadedParityOnModelZoo)
{
    for (const models::ZooEntry &entry : models::modelZoo()) {
        SCOPED_TRACE(entry.name);
        const Graph g = entry.build(entry.test_height,
                                    entry.test_width, 0);
        const std::vector<Tensor> inputs = makeInputs(g);
        const ExecutionPlan plan(g);

        SerialBackend serial;
        ThreadedBackend threaded(4);
        const Tensor s = serial.run(plan, inputs);
        const Tensor t = threaded.run(plan, inputs);
        expectTensorsNear(s, t, 1e-4);
    }
}

TEST(Runtime, DeterministicAcrossThreadCounts)
{
    // RITNet and FBNet at their minimum resolutions with 1, 2, and 8
    // threads: outputs must be bitwise identical, not just close.
    for (const char *name : {"ritnet", "fbnet"}) {
        SCOPED_TRACE(name);
        const models::ZooEntry &entry = models::findModel(name);
        const Graph g = entry.build(entry.test_height,
                                    entry.test_width, 0);
        const std::vector<Tensor> inputs = makeInputs(g);
        const ExecutionPlan plan(g);

        ThreadedBackend one(1);
        ThreadedBackend two(2);
        ThreadedBackend eight(8);
        const Tensor r1 = one.run(plan, inputs);
        const Tensor r2 = two.run(plan, inputs);
        const Tensor r8 = eight.run(plan, inputs);
        expectTensorsIdentical(r1, r2);
        expectTensorsIdentical(r1, r8);
    }
}

TEST(Runtime, QuantizedGraphMatchesEager)
{
    const models::ZooEntry &entry = models::findModel("ritnet");
    const Graph g = entry.build(entry.test_height, entry.test_width,
                                8);
    const std::vector<Tensor> inputs = makeInputs(g);
    const ExecutionPlan plan(g);
    ThreadedBackend threaded(2);
    expectTensorsIdentical(threaded.run(plan, inputs),
                           runEager(g, inputs));
}

TEST(Runtime, MakeBackendSelectsKind)
{
    EXPECT_EQ(makeBackend(BackendKind::Serial)->name(), "serial");
    const auto threaded = makeBackend(BackendKind::Threaded, 3);
    EXPECT_EQ(threaded->name(), "threaded-3");
}

TEST(Runtime, ConcurrentFirstForwardDrawsWeightsOnce)
{
    // Each layer draws its weights on its first forward(). Threads
    // that race into the first forward of one graph must all compute
    // with the fully drawn weights: bitwise what a serial first run
    // on another fresh graph computes. CI runs Runtime.* under the
    // thread sanitizer.
    const Graph reference = buildWeightedChain();
    const std::vector<Tensor> inputs = makeInputs(reference);
    const Tensor expected = reference.forward(inputs);

    const Graph shared = buildWeightedChain();
    constexpr int kThreads = 4;
    std::vector<Tensor> outs(kThreads);
    std::atomic<int> arrived{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            arrived.fetch_add(1);
            while (arrived.load() < kThreads)
                std::this_thread::yield();
            outs[size_t(t)] = shared.forward(inputs);
        });
    }
    for (std::thread &th : threads)
        th.join();
    for (const Tensor &out : outs)
        expectTensorsIdentical(out, expected);
}

TEST(Runtime, GraphForwardUsesPlannedRuntime)
{
    // Graph::forward is now a plan-and-run wrapper; it must agree
    // with the historical eager executor bit for bit.
    const Graph g = buildSkipDag();
    const std::vector<Tensor> inputs = makeInputs(g);
    expectTensorsIdentical(g.forward(inputs), runEager(g, inputs));
}
