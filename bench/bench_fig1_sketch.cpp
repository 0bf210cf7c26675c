/**
 * @file
 * Reproduces Figure 1: the episode sketch of a 1705 ms paint episode
 * whose lag bottoms out in a native DrawLine call containing a
 * 466 ms garbage collection — and whose sample row goes quiet for
 * far longer than the GC interval, because the JVMTI-style sampler
 * stops at the safepoint and the GUI thread waits for a time slice
 * after the collection (paper §II.B).
 *
 * The episode is scripted through the full production pipeline
 * (simulated JVM -> LiLa -> trace -> Session -> sketch renderer);
 * the paper's interval durations are reproduced by construction and
 * printed next to the measured tree.
 */

#include <cstdint>
#include <iostream>

#include "core/session.hh"
#include "util/logging.hh"
#include "jvm/vm.hh"
#include "lila/agent.hh"
#include "study_util.hh"
#include "util/strings.hh"
#include "viz/sketch.hh"

namespace
{

using namespace lag;

/** Paint-cascade node helper. */
jvm::ActivityNode
paintNode(const char *cls, DurationNs self)
{
    jvm::ActivityNode node;
    node.kind = jvm::ActivityKind::Paint;
    node.frame = jvm::Frame{cls, "paint"};
    node.selfCost = self;
    return node;
}

/** Print the subtree at @p root, one indented line per interval. */
void
dumpTree(const core::Session &session, const core::FlatTree &tree,
         std::uint32_t root)
{
    core::flatForEachInPreorder(
        tree, root, [&](std::uint32_t i, std::size_t depth) {
            std::cout << std::string(depth * 2, ' ')
                      << core::intervalTypeName(tree.typeOf(i));
            if (tree.classSym[i] != 0) {
                std::cout << ' ' << session.symbol(tree.classSym[i])
                          << '.' << session.symbol(tree.methodSym[i]);
            }
            std::cout << " — " << formatDurationNs(tree.duration(i))
                      << '\n';
        });
}

} // namespace

int
main()
{
    // --- Script the paper's episode ---------------------------------
    // Figure 1's numbers: episode 1705 ms; JLayeredPane.paint
    // 1533 ms; JToolBar.paint 1347 ms; native DrawLine 843 ms with a
    // 466 ms GC inside.
    jvm::JvmConfig config;
    config.seed = 20100328; // ISPASS 2010
    config.dispatchOverhead = 0;
    config.samplePeriod = msToNs(10);
    // Make the single collection exactly 466 ms and let the sampler
    // stay down for a while afterwards, as in the figure.
    config.heap.youngCapacityBytes = 32 << 20;
    config.heap.minorPauseMedian = msToNs(466);
    config.heap.minorPauseMin = msToNs(466);
    config.heap.minorPauseMax = msToNs(466);
    config.samplerResumeDelayMax = msToNs(260);
    config.postGcRescheduleJitterMax = msToNs(40);

    lila::LilaAgent agent(lila::LilaConfig{});
    jvm::Jvm vm(config, agent);
    vm.createEventDispatchThread();
    agent.beginSession("Figure1", 0, config.seed, config.samplePeriod,
                       0);
    vm.start();

    vm.eventQueue().scheduleAfter(secToNs(2), [&vm] {
        // Native DrawLine: 377 ms of native CPU; allocating twice
        // the young generation pulls the collection in mid-call, so
        // its traced span is 377 + 466 = 843 ms.
        jvm::ActivityNode native;
        native.kind = jvm::ActivityKind::Native;
        native.frame =
            jvm::Frame{"sun.java2d.loops.DrawLine", "DrawLine"};
        native.selfCost = msToNs(377);
        native.allocBytes = 64 << 20;

        jvm::ActivityNode toolbar =
            paintNode("javax.swing.JToolBar", msToNs(504));
        toolbar.children.push_back(std::move(native));
        jvm::ActivityNode layered =
            paintNode("javax.swing.JLayeredPane", msToNs(186));
        layered.children.push_back(std::move(toolbar));
        jvm::ActivityNode root_pane =
            paintNode("javax.swing.JRootPane", msToNs(150));
        root_pane.children.push_back(std::move(layered));
        jvm::ActivityNode frame =
            paintNode("javax.swing.JFrame", msToNs(22));
        frame.children.push_back(std::move(root_pane));

        jvm::GuiEvent event;
        event.handler = std::make_shared<const jvm::ActivityNode>(
            std::move(frame));
        vm.postGuiEvent(event);
    });
    vm.run(secToNs(6));

    const core::Session session =
        core::Session::fromTrace(agent.finishSession(vm.now()));
    if (session.episodes().empty())
        fatal("figure-1 episode was not recorded");
    const core::Episode &episode = session.episodes()[0];

    std::cout << "Figure 1: episode sketch (paper values: episode "
                 "1705 ms; JLayeredPane 1533 ms; JToolBar 1347 ms; "
                 "native DrawLine 843 ms; GC 466 ms)\n\n";
    std::cout << "Measured interval tree:\n";
    dumpTree(session, session.episodeTree(episode),
             session.episodeRoot(episode));

    // The sample gap around the GC must exceed the GC itself.
    TimeNs gap_start = episode.begin;
    TimeNs max_gap = 0;
    TimeNs gap_at = 0;
    for (std::size_t s = episode.firstSample; s < episode.lastSample;
         ++s) {
        const TimeNs t = session.samples().time(s);
        if (t - gap_start > max_gap) {
            max_gap = t - gap_start;
            gap_at = gap_start;
        }
        gap_start = t;
    }
    std::cout << "\nLongest sample gap: " << formatDurationNs(max_gap)
              << " (GC interval: 466.0 ms) starting "
              << formatDurationNs(gap_at - episode.begin)
              << " into the episode — the sampler stops for longer "
                 "than the collection, as the paper observes.\n";

    viz::SketchOptions options;
    options.title = "Figure 1: episode sketch";
    const std::string path = lag::bench::figurePath("fig1_sketch.svg");
    viz::renderEpisodeSketch(session, episode, options).writeFile(path);
    std::cout << "\nSVG written to " << path << "\n\n";
    std::cout << viz::renderAsciiSketch(session, episode, 100);
    return 0;
}
