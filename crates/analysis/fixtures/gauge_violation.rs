// Seeded violation: state mirrored into a gauge by hand on the pin
// path, beside an excused site and test code that may set gauges.

use pitract_obs::Recorder;

pub fn on_pin(recorder: &Recorder) {
    recorder.gauge("mvcc_pins").inc();
}

pub fn excused(recorder: &Recorder) {
    // lint:allow(gauge-outside-status) a one-off migration shim, removed with its caller
    recorder.gauge("legacy_depth").set(0);
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_set_gauges() {
        pitract_obs::Recorder::new().gauge("depth").set(1);
    }
}
